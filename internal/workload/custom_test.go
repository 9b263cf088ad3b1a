package workload

import (
	"strings"
	"testing"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
)

const specJSON = `{
  "name": "mykernel",
  "iters": 4,
  "imbalance": 0.05,
  "phases": [
    {"computeMs": 2.0},
    {"halo": {"neighbors": "faces", "bytes": 16384}},
    {"collective": {"op": "allreduce", "bytes": 8}},
    {"exchange": {"degree": 2, "bytes": 4096}}
  ]
}`

func TestReadSpecAndGenerate(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	cols, err := FromSpec(spec, Params{Ranks: 27, Machine: "edison", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := cols.Materialize()
	if tr.Meta.App != "mykernel" {
		t.Errorf("app = %q", tr.Meta.App)
	}
	c := map[trace.Op]int{}
	for _, evs := range tr.Ranks {
		for i := range evs {
			c[evs[i].Op]++
		}
	}
	if c[trace.OpAllreduce] != 27*4 {
		t.Errorf("allreduces = %d, want %d", c[trace.OpAllreduce], 27*4)
	}
	if c[trace.OpIsend] == 0 || c[trace.OpIrecv] == 0 {
		t.Error("no halo/exchange traffic")
	}
	// Imbalance is a persistent profile.
	var t0, t26 float64
	for _, e := range tr.Ranks[0] {
		if e.Op == trace.OpCompute {
			t0 += e.Duration().Seconds()
		}
	}
	for _, e := range tr.Ranks[26] {
		if e.Op == trace.OpCompute {
			t26 += e.Duration().Seconds()
		}
	}
	if t0 == t26 {
		t.Error("no skew applied")
	}
}

func TestSpecEndToEnd(t *testing.T) {
	spec, err := ReadSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Ranks: 16, Machine: "hopper", Seed: 8}
	tr, err := FromSpec(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth + model + simulation must all work on spec traces.
	if _, err := mpisim.ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{},
		mpisim.Options{Record: true, Perturb: mpisim.DefaultNoise(p.Seed, p.Ranks)}); err != nil {
		t.Fatal(err)
	}
	res, err := mfact.ModelSource(tr, mach, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() <= 0 {
		t.Error("zero modeled total")
	}
}

func TestSpecHypercubeStencil(t *testing.T) {
	spec := &Spec{Name: "hc", Phases: []Phase{{Halo: &HaloPhase{Neighbors: "hypercube", Bytes: 1024}}}}
	cols, err := FromSpec(spec, Params{Ranks: 16, Machine: "edison", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := cols.Materialize()
	peers := map[int32]bool{}
	for _, e := range tr.Ranks[0] {
		if e.Op == trace.OpIsend {
			peers[e.Peer] = true
		}
	}
	for _, want := range []int32{1, 2, 4, 8} {
		if !peers[want] {
			t.Errorf("missing hypercube partner %d", want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{"phases":[{"computeMs":1}]}`, // no name
		`{"name":"x","phases":[]}`,     // no phases
		`{"name":"x","phases":[{}]}`,   // empty phase
		`{"name":"x","phases":[{"computeMs":1,"halo":{"neighbors":"faces"}}]}`, // two kinds
		`{"name":"x","phases":[{"halo":{"neighbors":"torus"}}]}`,               // bad stencil
		`{"name":"x","phases":[{"collective":{"op":"gossip"}}]}`,               // bad collective
		`{"name":"x","phases":[{"exchange":{"degree":0}}]}`,                    // bad degree
		`{"name":"x","imbalance":-1,"phases":[{"computeMs":1}]}`,               // bad imbalance
		`{"name":"x","bogus":true,"phases":[{"computeMs":1}]}`,                 // unknown field
		`not json`,
	}
	for _, in := range bad {
		if _, err := ReadSpec(strings.NewReader(in)); err == nil {
			t.Errorf("spec %q accepted", in)
		}
	}
	if _, err := FromSpec(&Spec{Name: "x", Phases: []Phase{{ComputeMs: 1}}}, Params{Ranks: 1}); err == nil {
		t.Error("1 rank accepted")
	}
}
