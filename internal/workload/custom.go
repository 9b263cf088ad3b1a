package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"hpctradeoff/internal/trace"
)

// Spec describes a synthetic application as a JSON-serializable phase
// program, for studying communication patterns without writing a Go
// generator. A spec plays the role of the paper's "workload generation
// is a separate issue" hook: if you can describe a future workload's
// pattern, the trade-off analysis applies to it.
//
// Example:
//
//	{
//	  "name": "mykernel",
//	  "iters": 10,
//	  "imbalance": 0.05,
//	  "phases": [
//	    {"computeMs": 2.5},
//	    {"halo": {"neighbors": "faces", "bytes": 16384}},
//	    {"collective": {"op": "allreduce", "bytes": 8}}
//	  ]
//	}
type Spec struct {
	// Name labels the trace's App metadata.
	Name string `json:"name"`
	// Iters repeats the phase list (default 1).
	Iters int `json:"iters"`
	// Imbalance adds a persistent per-rank compute skew in [0, x].
	Imbalance float64 `json:"imbalance"`
	// UsesCommSplit / UsesThreadMultiple set the capability flags.
	UsesCommSplit      bool `json:"usesCommSplit"`
	UsesThreadMultiple bool `json:"usesThreadMultiple"`
	// Phases execute in order each iteration.
	Phases []Phase `json:"phases"`
}

// Phase is one step; exactly one field must be set.
type Phase struct {
	// ComputeMs is a computation interval (mean per rank,
	// milliseconds).
	ComputeMs float64 `json:"computeMs,omitempty"`
	// Halo is a nonblocking neighbor exchange.
	Halo *HaloPhase `json:"halo,omitempty"`
	// Collective is a single collective over MPI_COMM_WORLD.
	Collective *CollectivePhase `json:"collective,omitempty"`
	// Exchange is a random symmetric pairwise exchange.
	Exchange *ExchangePhase `json:"exchange,omitempty"`
}

// HaloPhase describes a stencil exchange.
type HaloPhase struct {
	// Neighbors selects the stencil: "faces" (6-point 3-D), "all"
	// (26-point 3-D), or "hypercube" (log₂ n partners).
	Neighbors string `json:"neighbors"`
	// Bytes is the per-neighbor payload.
	Bytes int64 `json:"bytes"`
}

// CollectivePhase describes one collective call.
type CollectivePhase struct {
	// Op is the lowercase collective name: "barrier", "bcast",
	// "reduce", "allreduce", "gather", "scatter", "allgather",
	// "alltoall", "reducescatter".
	Op string `json:"op"`
	// Bytes is the per-member payload.
	Bytes int64 `json:"bytes"`
	// Root is the world rank for rooted collectives.
	Root int32 `json:"root"`
}

// ExchangePhase describes irregular pairwise traffic.
type ExchangePhase struct {
	// Degree is the approximate number of partners per rank.
	Degree int `json:"degree"`
	// Bytes is the per-message payload.
	Bytes int64 `json:"bytes"`
}

// specCollectives maps spec op names to trace operations.
var specCollectives = map[string]trace.Op{
	"barrier": trace.OpBarrier, "bcast": trace.OpBcast,
	"reduce": trace.OpReduce, "allreduce": trace.OpAllreduce,
	"gather": trace.OpGather, "scatter": trace.OpScatter,
	"allgather": trace.OpAllgather, "alltoall": trace.OpAlltoall,
	"reducescatter": trace.OpReduceScatter,
}

// Validate checks the spec's structure.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec %q has no phases", s.Name)
	}
	if s.Imbalance < 0 {
		return fmt.Errorf("workload: negative imbalance")
	}
	for i, ph := range s.Phases {
		set := 0
		if ph.ComputeMs != 0 {
			set++
			if ph.ComputeMs < 0 {
				return fmt.Errorf("workload: phase %d: negative compute", i)
			}
		}
		if ph.Halo != nil {
			set++
			switch ph.Halo.Neighbors {
			case "faces", "all", "hypercube":
			default:
				return fmt.Errorf("workload: phase %d: unknown stencil %q", i, ph.Halo.Neighbors)
			}
			if ph.Halo.Bytes < 0 {
				return fmt.Errorf("workload: phase %d: negative halo bytes", i)
			}
		}
		if ph.Collective != nil {
			set++
			if _, ok := specCollectives[ph.Collective.Op]; !ok {
				return fmt.Errorf("workload: phase %d: unknown collective %q", i, ph.Collective.Op)
			}
		}
		if ph.Exchange != nil {
			set++
			if ph.Exchange.Degree < 1 {
				return fmt.Errorf("workload: phase %d: exchange degree must be ≥ 1", i)
			}
		}
		if set != 1 {
			return fmt.Errorf("workload: phase %d must set exactly one of computeMs/halo/collective/exchange", i)
		}
	}
	return nil
}

// ReadSpec parses a JSON spec.
func ReadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// FromSpec generates the structural trace for a custom spec. The
// Params' App field is ignored (the spec's name is used); Class scales
// nothing — spec values are taken literally.
func FromSpec(s *Spec, p Params) (*trace.Columns, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if p.Ranks < 2 {
		return nil, fmt.Errorf("workload: need ≥ 2 ranks")
	}
	iters := s.Iters
	if p.Iters > 0 {
		iters = p.Iters
	}
	if iters <= 0 {
		iters = 1
	}
	meta := trace.Meta{
		App:                s.Name,
		Class:              p.Class,
		Machine:            p.Machine,
		NumRanks:           p.Ranks,
		RanksPerNode:       p.RanksPerNode,
		Seed:               p.Seed,
		UsesCommSplit:      s.UsesCommSplit,
		UsesThreadMultiple: s.UsesThreadMultiple,
	}
	g := &gen{
		p:     p,
		b:     trace.NewBuilder(meta),
		rng:   newGenRNG(p, s.Name),
		n:     p.Ranks,
		iters: iters,
		scale: 1,
	}
	grid := newGrid3(g.n)
	var skew []float64
	if s.Imbalance > 0 {
		skew = g.skewProfile(s.Imbalance)
	}
	for it := 0; it < g.iters; it++ {
		for pi, ph := range s.Phases {
			switch {
			case ph.ComputeMs > 0:
				if skew != nil {
					g.computeSkewed(ms(ph.ComputeMs), skew)
				} else {
					g.computeAll(ms(ph.ComputeMs), 0.02)
				}
			case ph.Halo != nil:
				tag := int32(200 + pi)
				sz := ph.Halo.Bytes
				switch ph.Halo.Neighbors {
				case "faces":
					g.haloExchange(grid.faceNeighbors, tag, func(r, nbr int) int64 { return sz })
				case "all":
					g.haloExchange(grid.allNeighbors, tag, func(r, nbr int) int64 { return sz })
				case "hypercube":
					for d := 0; (1 << d) < g.n; d++ {
						mask := 1 << d
						g.haloExchange(func(r int) []int {
							if q := r ^ mask; q < g.n && q != r {
								return []int{q}
							}
							return nil
						}, tag+int32(d)<<8, func(r, nbr int) int64 { return sz })
					}
				}
			case ph.Collective != nil:
				g.collectiveAll(specCollectives[ph.Collective.Op], ph.Collective.Root, ph.Collective.Bytes)
			case ph.Exchange != nil:
				pairs := g.randomPairs(ph.Exchange.Degree)
				sz := ph.Exchange.Bytes
				g.pairExchange(pairs, int32(300+pi), func(a, b int) int64 { return sz })
			}
		}
	}
	return g.b.BuildColumns()
}

// newGenRNG mirrors GenerateColumns's seeding for custom specs.
func newGenRNG(p Params, name string) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed ^ int64(p.Ranks)*0x9e37 ^ hashName(name)))
}
