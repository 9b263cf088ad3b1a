package mfact

import (
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func TestGridSweep(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "g", NumRanks: 16})
	for r := 0; r < 16; r++ {
		b.Collective(r, trace.OpAlltoall, trace.CommWorld, 0, 1<<20)
	}
	tr := build(t, b)
	mach := testMach(t, 16)
	g, err := GridSweep(tr, mach, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Totals) != 5 || len(g.Totals[0]) != 5 {
		t.Fatalf("grid shape %dx%d", len(g.Totals), len(g.Totals[0]))
	}
	// Monotone: total decreases (weakly) as bandwidth grows, for a
	// bandwidth-bound workload, at fixed latency.
	for j := range g.LatScales {
		for i := 1; i < len(g.BWScales); i++ {
			if g.Totals[i][j] > g.Totals[i-1][j] {
				t.Errorf("total rose with bandwidth at lat ×%g: %v -> %v",
					g.LatScales[j], g.Totals[i-1][j], g.Totals[i][j])
			}
		}
	}
	// At() cross-checks the layout.
	if g.At(1, 1) != g.Totals[2][2] {
		t.Error("At(1,1) wrong cell")
	}
	if g.At(7, 7) != -1 {
		t.Error("At off-grid should be -1")
	}
	if !strings.Contains(g.Render(), "bw\\lat") {
		t.Error("render broken")
	}
}

func TestGridSweepCustomAxes(t *testing.T) {
	b := trace.NewBuilder(trace.Meta{App: "g2", NumRanks: 4})
	for r := 0; r < 4; r++ {
		b.Compute(r, simtime.Millisecond)
	}
	tr := build(t, b)
	g, err := GridSweep(tr, testMach(t, 4), []float64{1, 10}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Totals) != 2 || len(g.Totals[0]) != 1 {
		t.Fatalf("grid shape %dx%d", len(g.Totals), len(g.Totals[0]))
	}
	// Compute-only: identical everywhere.
	if g.Totals[0][0] != g.Totals[1][0] {
		t.Error("compute-only workload should be network-invariant")
	}
}

// TestGridSweepClassMatchesModel: the grid's class comes from the same
// β/8 and 8α probes ModelSource's standard sweep classifies with, on
// the default axes (which hold neither probe) and on axes without any
// sensitivity point.
func TestGridSweepClassMatchesModel(t *testing.T) {
	// Tiny blocking ping-pongs: latency-bound, which only the 8α probe
	// can tell.
	b := trace.NewBuilder(trace.Meta{App: "pingpong", NumRanks: 8})
	for i := 0; i < 400; i++ {
		b.Send(0, 7, 0, 8, trace.CommWorld)
		b.Recv(7, 0, 0, 8, trace.CommWorld)
		b.Send(7, 0, 1, 8, trace.CommWorld)
		b.Recv(0, 7, 1, 8, trace.CommWorld)
	}
	pingpong := build(t, b)
	cg, err := workload.MaterializeColumns(workload.Params{App: "CG", Class: "S", Ranks: 16, Machine: "edison", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cgMach, err := machine.Edison(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		src  trace.Source
		mach *machine.Config
	}{
		{"pingpong", pingpong, testMach(t, 8)},
		{"CG.S.16", cg, cgMach},
	}
	for _, c := range cases {
		want, err := ModelSource(c.src, c.mach, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, axes := range [][2][]float64{{nil, nil}, {{1, 2}, {1}}} {
			g, err := GridSweep(c.src, c.mach, axes[0], axes[1])
			if err != nil {
				t.Fatal(err)
			}
			if g.Class != want.Class {
				t.Errorf("%s, axes %v×%v: grid class %v, ModelSource class %v", c.name, axes[0], axes[1], g.Class, want.Class)
			}
		}
	}
}
