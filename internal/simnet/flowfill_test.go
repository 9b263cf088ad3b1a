package simnet

import (
	"math"
	"math/rand"
	"testing"

	"hpctradeoff/internal/des"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/topology"
)

// refFlow is one flow of the reference filling.
type refFlow struct {
	path      []topology.LinkID
	remaining float64
	rate      float64
	frozen    bool
}

// refFillStats reports which parts of progressive filling a reference
// run exercised.
type refFillStats struct {
	tiers     int  // bottleneck tiers solved exactly
	fairShare bool // flows were still unfrozen after the tier loop
}

// referenceFill is progressive filling flow by flow, walking every
// unfrozen flow's path in each tier: the formulation flowNet.fill must
// reproduce bit for bit. It sets every flow's rate and returns the
// earliest completion time.
func referenceFill(flows []*refFlow, bw []float64, now simtime.Time) (simtime.Time, refFillStats) {
	var st refFillStats
	avail := map[topology.LinkID]float64{}
	count := map[topology.LinkID]int32{}
	var active []topology.LinkID
	for _, fl := range flows {
		fl.frozen = false
		fl.rate = 0
		for _, l := range fl.path {
			if _, ok := avail[l]; !ok {
				avail[l] = bw[l]
				active = append(active, l)
			}
			count[l]++
		}
	}
	unfrozen := len(flows)
	for tier := 0; unfrozen > 0 && tier < maxFillTiers; tier++ {
		delta := math.Inf(1)
		for _, l := range active {
			if c := count[l]; c > 0 {
				if s := avail[l] / float64(c); s < delta {
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
		st.tiers++
		for _, fl := range flows {
			if fl.frozen {
				continue
			}
			fl.rate += delta
			for _, l := range fl.path {
				avail[l] -= delta
			}
		}
		froze := false
		for _, fl := range flows {
			if fl.frozen {
				continue
			}
			saturated := false
			for _, l := range fl.path {
				if avail[l] <= 1e-6*bw[l] {
					saturated = true
					break
				}
			}
			if saturated {
				fl.frozen = true
				froze = true
				unfrozen--
				for _, l := range fl.path {
					count[l]--
				}
			}
		}
		if !froze {
			break
		}
	}
	if unfrozen > 0 {
		st.fairShare = true
		for _, fl := range flows {
			if fl.frozen {
				continue
			}
			share := math.Inf(1)
			for _, l := range fl.path {
				if c := count[l]; c > 0 {
					if s := avail[l] / float64(c); s < share {
						share = s
					}
				}
			}
			if !math.IsInf(share, 1) && share > 0 {
				fl.rate += share
			}
		}
	}
	next := simtime.Forever
	for _, fl := range flows {
		if fl.rate <= 0 {
			continue
		}
		t := now + simtime.FromSeconds(fl.remaining/fl.rate)
		if t <= now {
			t = now + 1
		}
		next = simtime.Min(next, t)
	}
	return next, st
}

// fillMachine is a torus with per-link bandwidth jitter, so that
// bottleneck shares differ from link to link and filling runs many
// distinct tiers.
func fillMachine(t testing.TB) *machine.Config {
	t.Helper()
	m, err := machine.Hopper(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.ApplyVariability(machine.Variability{LinkJitter: 0.3, Seed: 11})
	return m
}

// checkFill advances the flow net to now, fills the flows still active
// and compares every rate (bitwise) and the earliest completion with
// referenceFill. It reports false when no flow was left to fill.
func checkFill(t testing.TB, f *flowNet, now simtime.Time) (refFillStats, bool) {
	t.Helper()
	f.advance(now)
	if len(f.flows) == 0 {
		return refFillStats{}, false
	}
	ref := make([]*refFlow, len(f.flows))
	for i, fl := range f.flows {
		ref[i] = &refFlow{path: f.routes.paths[fl.route], remaining: fl.remaining}
	}
	wantNext, st := referenceFill(ref, f.bw, now)
	gotNext := f.fill(now)
	for i, fl := range f.flows {
		if math.Float64bits(fl.rate) != math.Float64bits(ref[i].rate) {
			t.Fatalf("flow %d (route %d): rate %v (%#x), reference %v (%#x)",
				i, fl.route, fl.rate, math.Float64bits(fl.rate), ref[i].rate, math.Float64bits(ref[i].rate))
		}
	}
	if gotNext != wantNext {
		t.Fatalf("earliest completion %v, reference %v", gotNext, wantNext)
	}
	return st, true
}

// fillRound churns the flow set between two recomputes: some flows
// leave, the others keep a random share of their bytes, and new flows
// arrive, many of them on routes already in use.
func fillRound(f *flowNet, rng *rand.Rand, routes, arrivals int) {
	nodes := f.mach.Topo.Nodes()
	live := f.flows[:0]
	for _, fl := range f.flows {
		if rng.Intn(3) == 0 {
			continue
		}
		fl.remaining *= 0.25 + 0.75*rng.Float64()
		live = append(live, fl)
	}
	f.flows = live
	// A handful of node pairs carry all arrivals, so each route holds
	// many flows; distinct pairs give distinct bottlenecks.
	pairs := make([][2]int, routes)
	for i := range pairs {
		src := rng.Intn(nodes)
		dst := (src + 1 + rng.Intn(nodes-1)) % nodes
		pairs[i] = [2]int{src, dst}
	}
	for k := 0; k < arrivals; k++ {
		p := pairs[rng.Intn(len(pairs))]
		route, _ := f.routes.get(p[0], p[1])
		size := float64(int64(1) << (6 + rng.Intn(18))) // 64 B .. 8 MiB
		if rng.Intn(4) == 0 {
			size += float64(rng.Intn(4096))
		}
		f.flows = append(f.flows, &flow{route: route, remaining: size})
	}
}

// TestFlowFillMatchesPerFlowReference drives the class fill through
// many rounds of churn on one flow net (exercising the epoch-stamped
// scratch across recomputes) and checks each round bit for bit against
// per-flow progressive filling. It also checks that the generated sets
// reach the tier cap and the fair-share finish, so both branches are
// compared.
func TestFlowFillMatchesPerFlowReference(t *testing.T) {
	mach := fillMachine(t)
	var exact, capped, fairShare, rounds int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var eng des.Engine
		f := newFlowNet(&eng, mach, Config{})
		now := simtime.Time(0)
		for round := 0; round < 25; round++ {
			fillRound(f, rng, 1+rng.Intn(1+rng.Intn(24)), rng.Intn(300))
			now += simtime.Time(1 + rng.Intn(1_000_000))
			st, ok := checkFill(t, f, now)
			if !ok {
				continue
			}
			rounds++
			if st.tiers == maxFillTiers {
				capped++
			}
			if st.fairShare {
				fairShare++
			} else {
				exact++
			}
		}
	}
	t.Logf("%d fills: %d solved exactly, %d reached the %d-tier cap, %d ran the fair-share finish",
		rounds, exact, capped, maxFillTiers, fairShare)
	if exact == 0 || capped == 0 || fairShare == 0 {
		t.Errorf("generated flow sets miss a branch: %d exact, %d at the tier cap, %d fair-share finishes",
			exact, capped, fairShare)
	}
}

// FuzzFlowFill checks the class fill against per-flow filling on flow
// sets drawn from the fuzzer's seed and shape parameters.
func FuzzFlowFill(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(200), uint8(3))
	f.Add(int64(7), uint8(1), uint16(900), uint8(1))
	f.Add(int64(42), uint8(30), uint16(64), uint8(6))
	f.Add(int64(-3), uint8(12), uint16(1500), uint8(2))
	mach := fillMachine(f)
	f.Fuzz(func(t *testing.T, seed int64, routes uint8, arrivals uint16, rounds uint8) {
		rng := rand.New(rand.NewSource(seed))
		var eng des.Engine
		net := newFlowNet(&eng, mach, Config{})
		for r := 0; r < int(rounds%8)+1; r++ {
			fillRound(net, rng, int(routes%48)+1, int(arrivals%2048))
			checkFill(t, net, simtime.Time(r+1)*simtime.Millisecond)
		}
	})
}
