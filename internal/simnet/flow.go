package simnet

import (
	"math"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// flowNet is the flow-level (fluid) model: each message is a flow that
// traverses its path as a fluid, sharing every link's bandwidth
// max-min-fairly with the competing flows. Whenever flows start or
// finish, the rates of all active flows are recomputed — the "ripple
// effect" that makes fluid simulation expensive under churn, which the
// paper (citing Liu et al.) identifies as the flow model's cost.
//
// Rate recomputations triggered at the same instant (e.g. a halo
// exchange posting thousands of flows in one event round) are coalesced
// into a single progressive-filling pass.
//
// Progressive filling runs over route classes, not flows: a class is
// the set of active flows on one node-pair route. Flows on one route
// cross the same links, so every tier gives them the same increment,
// freezes them together and hands them the same fair share; the class
// carries one rate that its flows copy. A collective posts hundreds of
// flows over a handful of routes, so a recompute costs
// O(flows + tiers·(classes·path + Σ link counts)), where the last term
// is fill's per-link subtraction loop, rather than the
// O(tiers·flows·path) of walking every flow's path in each tier.
type flowNet struct {
	eng  *des.Engine
	mach *machine.Config
	cfg  Config

	routes routeCache
	bw     []float64 // per-link bandwidth, indexed by topology.LinkID
	flows  []*flow   // active flows, compacted on completion
	free   []*flow   // completed flow objects recycled by Send
	stats  Stats

	// Per-link scratch state indexed by topology.LinkID and per-class
	// scratch indexed by route id, both epoch-stamped so recompute never
	// clears a whole array.
	linkAvail []float64
	linkCount []int32 // unfrozen flows crossing the link
	linkEpoch []uint32
	class     []routeClass
	epoch     uint32

	// recomputeAt coalesces recompute requests within a small quantum;
	// version stamps invalidate stale completion timers.
	recomputePending bool
	version          int64
	// activeLinks and activeClasses list the links and route ids the
	// current flow set touches, in first-use order; open holds the
	// classes not yet frozen (all scratch, rebuilt each recompute).
	activeLinks   []topology.LinkID
	activeClasses []int32
	open          []int32
}

// routeClass is the progressive-filling state shared by the active
// flows of one route.
type routeClass struct {
	epoch  uint32
	size   int32   // active flows on the route
	rate   float64 // bytes/s, the rate each of them receives
	minRem float64 // fewest remaining bytes among them
}

// recomputeQuantum batches flow-set changes that occur within a couple
// of microseconds into one rate recomputation. The timing error is
// bounded by the quantum, which is on the order of the network's α.
const recomputeQuantum = 2 * simtime.Microsecond

// maxFillTiers bounds progressive filling to that many bottleneck tiers
// solved exactly; any flows still unfrozen then receive their current
// fair share (avail/count on their own bottleneck) in one pass.
// Heterogeneous all-to-all traffic can otherwise produce thousands of
// distinct tiers.
const maxFillTiers = 6

type flow struct {
	route     int32   // routeCache id, the flow's class
	remaining float64 // bytes
	rate      float64 // bytes/s
	updated   simtime.Time
	tail      simtime.Time // propagation latency appended after drain
	onDone    func()
}

func newFlowNet(eng *des.Engine, mach *machine.Config, cfg Config) *flowNet {
	n := mach.Topo.NumLinks()
	return &flowNet{
		eng:       eng,
		mach:      mach,
		cfg:       cfg,
		routes:    newRouteCache(mach),
		bw:        linkBandwidths(mach),
		linkAvail: make([]float64, n),
		linkCount: make([]int32, n),
		linkEpoch: make([]uint32, n),
	}
}

// Model implements Network.
func (f *flowNet) Model() Model { return Flow }

// Stats implements Network.
func (f *flowNet) Stats() Stats { return f.stats }

// Send implements Network.
func (f *flowNet) Send(src, dst int32, bytes int64, onDelivered func()) {
	f.stats.Messages++
	f.stats.BytesSent += bytes
	srcNode, dstNode := f.mach.NodeOf[src], f.mach.NodeOf[dst]
	if srcNode == dstNode {
		f.eng.After(loopback(bytes, f.cfg, f.mach), onDelivered)
		return
	}
	route, path := f.routes.get(int(srcNode), int(dstNode))
	latency := 2*f.mach.NICLatency + simtime.Time(len(path))*f.mach.LinkLatency
	if bytes <= 0 {
		f.eng.After(latency, onDelivered)
		return
	}
	fl := f.getFlow()
	fl.route, fl.remaining, fl.rate = route, float64(bytes), 0
	fl.updated, fl.tail, fl.onDone = f.eng.Now(), latency, onDelivered
	f.flows = append(f.flows, fl)
	f.requestRecompute()
}

// getFlow takes a flow object from the free-list or allocates one; a
// steady message stream recycles its flow objects instead of leaving
// one garbage struct per message.
func (f *flowNet) getFlow() *flow {
	if n := len(f.free); n > 0 {
		fl := f.free[n-1]
		f.free = f.free[:n-1]
		return fl
	}
	return &flow{}
}

// requestRecompute schedules one recompute within the coalescing
// quantum, batching all flow-set changes issued in the meantime.
func (f *flowNet) requestRecompute() {
	if f.recomputePending {
		return
	}
	f.recomputePending = true
	f.version++
	f.eng.After(recomputeQuantum, func() {
		f.recomputePending = false
		f.recompute()
	})
}

// recompute advances every flow's progress to now, completes drained
// flows, recomputes max-min fair rates with progressive filling, and
// schedules the next completion event.
func (f *flowNet) recompute() {
	now := f.eng.Now()
	f.stats.FlowUpdates++
	f.advance(now)
	if len(f.flows) == 0 {
		return
	}
	next := f.fill(now)
	if next < simtime.Forever {
		// Nudge the earliest completion forward by a small grain (1% of
		// the shortest remaining drain, ≤ 50 µs) so the thousands of
		// near-symmetric flows a halo exchange or an all-to-all storm
		// creates complete in batches instead of one recompute each. The
		// per-flow timing error is bounded by the grain.
		grain := (next - now) / 100
		if grain > 50*simtime.Microsecond {
			grain = 50 * simtime.Microsecond
		}
		next += grain
		f.version++
		v := f.version
		f.eng.At(next, func() {
			if v == f.version && !f.recomputePending {
				f.recompute()
			}
		})
	}
}

// advance moves every flow's progress to now and completes drained
// flows, compacting the flow list in place, and gathers the live flows
// into route classes for fill.
func (f *flowNet) advance(now simtime.Time) {
	f.epoch++
	if n := len(f.routes.paths); n > len(f.class) {
		f.class = append(f.class, make([]routeClass, n-len(f.class))...)
	}
	f.activeClasses = f.activeClasses[:0]
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.rate > 0 {
			fl.remaining -= fl.rate * (now - fl.updated).Seconds()
		}
		fl.updated = now
		if fl.remaining <= 0.5 { // sub-byte residue is numeric noise
			f.eng.After(fl.tail, fl.onDone)
			fl.onDone = nil
			f.free = append(f.free, fl)
			continue
		}
		live = append(live, fl)
		c := &f.class[fl.route]
		if c.epoch != f.epoch {
			*c = routeClass{epoch: f.epoch, minRem: fl.remaining}
			f.activeClasses = append(f.activeClasses, fl.route)
		}
		c.size++
		c.minRem = min(c.minRem, fl.remaining)
	}
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
}

// fill sets every active flow's max-min fair rate by progressive
// filling over the route classes advance gathered, and returns the
// earliest completion time (simtime.Forever when no flow moves). It is
// bit-identical to filling flow by flow:
//
//   - Flows of one class cross the same links, so each tier gives them
//     the same increment and freezes them together, and the fair-share
//     finish gives them the same share.
//   - A link's residue loses the tier's increment once per unfrozen flow
//     crossing it; the subtrahends are all equal, so linkCount[l]
//     subtractions in a row give exactly the per-flow scatter's value.
//   - Freezing a class takes its size off each linkCount on its path;
//     integer arithmetic, so the order of freezing does not matter.
//   - Links and classes are visited in the order the flow list first
//     touches them, as flow-by-flow filling visits the links.
//   - remaining/rate and simtime.FromSeconds are monotone, so a class's
//     earliest completion is its smallest remaining's.
func (f *flowNet) fill(now simtime.Time) simtime.Time {
	f.activeLinks = f.activeLinks[:0]
	for _, id := range f.activeClasses {
		size := f.class[id].size
		for _, l := range f.routes.paths[id] {
			if f.linkEpoch[l] != f.epoch {
				f.linkEpoch[l] = f.epoch
				f.linkAvail[l] = f.bw[l]
				f.linkCount[l] = 0
				f.activeLinks = append(f.activeLinks, l)
			}
			f.linkCount[l] += size
		}
	}

	// Progressive filling (max-min fairness): raise all unfrozen rates
	// uniformly until a link saturates, freeze the classes crossing it,
	// repeat.
	open := append(f.open[:0], f.activeClasses...)
	for tier := 0; len(open) > 0 && tier < maxFillTiers; tier++ {
		// Bottleneck share: min over links carrying unfrozen flows.
		delta := math.Inf(1)
		for _, l := range f.activeLinks {
			if c := f.linkCount[l]; c > 0 {
				if s := f.linkAvail[l] / float64(c); s < delta {
					delta = s
				}
			}
		}
		if math.IsInf(delta, 1) {
			break
		}
		if delta < 0 {
			delta = 0
		}
		// Consume the uniform increment on every link with unfrozen
		// flows, then freeze the classes crossing saturated links.
		for _, id := range open {
			f.class[id].rate += delta
		}
		for _, l := range f.activeLinks {
			avail := f.linkAvail[l]
			for k := f.linkCount[l]; k > 0; k-- {
				avail -= delta
			}
			f.linkAvail[l] = avail
		}
		kept := open[:0]
		for _, id := range open {
			path := f.routes.paths[id]
			saturated := false
			for _, l := range path {
				if f.linkAvail[l] <= 1e-6*f.bw[l] {
					saturated = true
					break
				}
			}
			if !saturated {
				kept = append(kept, id)
				continue
			}
			size := f.class[id].size
			for _, l := range path {
				f.linkCount[l] -= size
			}
		}
		froze := len(kept) < len(open)
		open = kept
		if !froze {
			break // numeric stall; the fair-share pass finishes below
		}
	}
	// Fair-share finish: every remaining class takes avail/count on its
	// most constrained link. Flows sharing a link split its residue
	// evenly, so capacity is never oversubscribed.
	for _, id := range open {
		share := math.Inf(1)
		for _, l := range f.routes.paths[id] {
			if c := f.linkCount[l]; c > 0 {
				if s := f.linkAvail[l] / float64(c); s < share {
					share = s
				}
			}
		}
		if !math.IsInf(share, 1) && share > 0 {
			f.class[id].rate += share
		}
	}
	f.open = open

	for _, fl := range f.flows {
		fl.rate = f.class[fl.route].rate
	}
	next := simtime.Forever
	for _, id := range f.activeClasses {
		c := &f.class[id]
		if c.rate <= 0 {
			continue
		}
		t := now + simtime.FromSeconds(c.minRem/c.rate)
		if t <= now {
			t = now + 1
		}
		next = simtime.Min(next, t)
	}
	return next
}
