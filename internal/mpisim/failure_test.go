package mpisim

import (
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// Failure-injection tests: the replay driver must diagnose broken
// inputs rather than hang or crash.

func TestReplayRejectsUndersizedMachine(t *testing.T) {
	b := newTB(8)
	b.compute(0, simtime.Millisecond)
	for r := 1; r < 8; r++ {
		b.compute(r, simtime.Millisecond)
	}
	tr := b.build(t)
	mach, err := machine.Cielito(4, 4) // hosts only 4 ranks
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{}); err == nil {
		t.Fatal("undersized machine accepted")
	}
}

func TestReplayDeadlockReportNamesTheRank(t *testing.T) {
	// A three-way rendezvous cycle: 0→1→2→0, all sending before
	// receiving.
	b := newTB(12)
	big := int64(1 << 20)
	ring := []int{0, 1, 2}
	for i, r := range ring {
		nxt := ring[(i+1)%3]
		b.send(r, nxt, 5, big)
	}
	for i, r := range ring {
		prv := ring[(i+2)%3]
		b.recv(r, prv, 5, big)
	}
	tr := b.build(t)
	mach := testMach(t, 12)
	_, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err == nil {
		t.Fatal("rendezvous cycle not detected")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("unhelpful deadlock report: %v", err)
	}
}

func TestReplayMixedEagerBreaksCycle(t *testing.T) {
	// Same cycle but one eager-sized message: the cycle is broken and
	// the replay completes.
	b := newTB(12)
	big := int64(1 << 20)
	b.send(0, 1, 5, 64) // eager
	b.send(1, 2, 5, big)
	b.send(2, 0, 5, big)
	b.recv(1, 0, 5, 64)
	b.recv(2, 1, 5, big)
	b.recv(0, 2, 5, big)
	tr := b.build(t)
	mach := testMach(t, 12)
	if _, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{}); err != nil {
		t.Fatalf("eager-broken cycle failed: %v", err)
	}
}

func TestReplayZeroRanksAndSingleRank(t *testing.T) {
	// Single-rank traces (compute only) are degenerate but legal.
	b := newTB(1)
	b.compute(0, simtime.Millisecond)
	tr := b.build(t)
	mach := testMach(t, 4)
	res, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != simtime.Millisecond {
		t.Errorf("total = %v", res.Total)
	}
}

func TestReplayManySmallCollectivesStress(t *testing.T) {
	// A stress mix: hundreds of tiny collectives across overlapping
	// sub-communicators; exercises the tag/sequence bookkeeping.
	b := newTB(12)
	evens := b.tr.Comms.Add([]int32{0, 2, 4, 6, 8, 10})
	odds := b.tr.Comms.Add([]int32{1, 3, 5, 7, 9, 11})
	b.tr.Meta.UsesCommSplit = true
	for it := 0; it < 50; it++ {
		for r := 0; r < 12; r++ {
			b.coll(r, trace.OpBarrier, trace.CommWorld, 0, 0)
		}
		for _, r := range []int{0, 2, 4, 6, 8, 10} {
			b.coll(r, trace.OpAllreduce, evens, 0, 16)
		}
		for _, r := range []int{1, 3, 5, 7, 9, 11} {
			b.coll(r, trace.OpBcast, odds, 1, 256)
		}
	}
	tr := b.build(t)
	mach := testMach(t, 12)
	res, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Error("zero total")
	}
}

func TestNoiseProperties(t *testing.T) {
	n := DefaultNoise(7, 4)
	// Compute jitter is multiplicative around 1 and deterministic.
	d := 10 * simtime.Millisecond
	a := n.Compute(1, 5, d)
	bv := n.Compute(1, 5, d)
	if a != bv {
		t.Error("noise not deterministic per (rank, event)")
	}
	if a < d.Scale(0.8) || a > d.Scale(1.5) {
		t.Errorf("jittered compute %v too far from %v", a, d)
	}
	if n.Compute(1, 5, 0) != 0 {
		t.Error("zero compute must stay zero")
	}
	// Overhead draws advance per call and stay positive.
	o1 := n.Overhead(2)
	o2 := n.Overhead(2)
	if o1 < 0 || o2 < 0 {
		t.Error("negative overhead")
	}
	if o1 == o2 {
		t.Error("overhead should vary across calls")
	}
	// Spikes occur at roughly the configured probability. Use a short
	// base interval so a ~150µs OS interruption is unmistakable.
	short := 100 * simtime.Microsecond
	spikes := 0
	const events = 40000
	for ev := int32(0); ev < events; ev++ {
		if n.Compute(0, ev, short) > short.Scale(1.5) {
			spikes++
		}
	}
	rate := float64(spikes) / events
	if rate < 0.0001 || rate > 0.002 {
		t.Errorf("spike rate = %v, want ≈ 0.0005", rate)
	}
}
