package mpisim

import (
	"testing"

	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// TestBackgroundInterferenceSlowsCommApp demonstrates the paper's
// §II-C point: neighbor-job traffic on shared links slows a
// communication-heavy application in simulation, while a Hockney-style
// model has no mechanism to see it.
func TestBackgroundInterferenceSlowsCommApp(t *testing.T) {
	b := newTB(32)
	const bytes = 256 << 10
	for it := 0; it < 10; it++ {
		for r := 0; r < 32; r++ {
			b.coll(r, trace.OpAlltoall, trace.CommWorld, 0, 16<<10)
		}
		for r := 0; r < 32; r++ {
			b.compute(r, simtime.Millisecond)
		}
	}
	_ = bytes
	tr := b.build(t)
	mach := testMach(t, 32)

	clean, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{
		Background: &Background{
			Sources:  8,
			MsgBytes: 64 << 10,
			Interval: 400 * simtime.Microsecond,
			Seed:     9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Total <= clean.Total {
		t.Errorf("background traffic did not slow the app: %v vs %v", noisy.Total, clean.Total)
	}
	slowdown := float64(noisy.Total)/float64(clean.Total) - 1
	if slowdown < 0.02 {
		t.Errorf("interference slowdown only %.2f%%; want a visible effect", 100*slowdown)
	}
	t.Logf("interference slowdown: %.1f%% (clean %v, contended %v)", 100*slowdown, clean.Total, noisy.Total)
}

// TestBackgroundDeterministic: the interference stream is seeded.
func TestBackgroundDeterministic(t *testing.T) {
	b := newTB(8)
	for r := 0; r < 8; r++ {
		b.compute(r, simtime.Millisecond)
		b.coll(r, trace.OpAllreduce, trace.CommWorld, 0, 8192)
	}
	tr := b.build(t)
	mach := testMach(t, 8)
	opts := Options{Background: &Background{Sources: 4, MsgBytes: 64 << 10, Interval: 50 * simtime.Microsecond, Seed: 3}}
	r1, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Total != r2.Total {
		t.Errorf("background replay not deterministic: %v vs %v", r1.Total, r2.Total)
	}
}

// TestBackgroundStops: the injector must not keep the engine alive
// forever after the application finishes.
func TestBackgroundStops(t *testing.T) {
	b := newTB(4)
	for r := 0; r < 4; r++ {
		b.compute(r, simtime.Millisecond)
	}
	tr := b.build(t)
	mach := testMach(t, 4)
	res, err := ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, Options{
		Background: &Background{Sources: 2, MsgBytes: 4096, Interval: 10 * simtime.Microsecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The app computes 1ms; the run must terminate shortly after.
	if res.Total > 2*simtime.Millisecond {
		t.Errorf("total = %v; background injector kept running?", res.Total)
	}
}
