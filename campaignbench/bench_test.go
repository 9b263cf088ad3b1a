package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/workload"
)

// traceResult builds a trace result measured at 100 time units whose
// schemes predicted the given totals; a negative total is a failed run
// of the given kind.
func traceResult(app string, totals map[string]int64, kind string) *core.TraceResult {
	r := &core.TraceResult{
		Params:   workload.Params{App: app, Class: "S", Ranks: 4, Machine: "hopper"},
		Measured: simtime.Time(100),
		Schemes:  map[string]scheme.Outcome{},
	}
	for n, t := range totals {
		o := scheme.Outcome{Scheme: n, OK: t >= 0, Total: simtime.Time(t), Comm: simtime.Time(t / 2), Events: uint64(t)}
		if t < 0 {
			o.Total, o.Comm, o.Events, o.ErrKind = 0, 0, 0, kind
		}
		r.Schemes[n] = o
	}
	return r
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestErrorMeansAndOkFrac(t *testing.T) {
	rs := []*core.TraceResult{
		traceResult("A", map[string]int64{"mfact": 110, "packet": 98, "flow": -1, "packetflow": 101}, string(core.KindUnsupported)),
		traceResult("B", map[string]int64{"mfact": 70, "packet": 104, "flow": 95, "packetflow": 99}, ""),
		nil,
	}
	if e, n := meanErrPct(rs, "mfact"); !near(e, 20) || n != 2 {
		t.Errorf("mfact mean error = %v over %d traces, want 20 over 2", e, n)
	}
	if e, n := meanErrPct(rs, "flow"); !near(e, 5) || n != 1 {
		t.Errorf("flow mean error = %v over %d traces, want 5 over the one trace it completed", e, n)
	}
	if _, n := meanErrPct(rs, "missing-scheme"); n != 0 {
		t.Errorf("a scheme that never ran has %d traces", n)
	}
	tl := countRuns(rs, 4)
	if tl.Attempted != 12 || tl.OK != 7 {
		t.Errorf("attempted %d ok %d, want 12 and 7", tl.Attempted, tl.OK)
	}
	if !near(tl.okFrac(), 7.0/12) {
		t.Errorf("ok_frac = %v, want 7/12", tl.okFrac())
	}
	if tl.ByKind[string(core.KindUnsupported)] != 1 || tl.ByKind[kindMissing] != 4 {
		t.Errorf("buckets %v, want 1 unsupported and 4 missing", tl.ByKind)
	}
	if tl.failed() != 4 {
		t.Errorf("failed = %d, want the 4 missing runs and not the capability gap", tl.failed())
	}
}

func TestDeliveredErrSelection(t *testing.T) {
	cases := []struct {
		name   string
		totals map[string]int64
		want   float64
	}{
		{"packetflow ran", map[string]int64{"mfact": 120, "packetflow": 103}, 0.03},
		{"packetflow failed", map[string]int64{"mfact": 120, "packetflow": -1}, 0.2},
		{"model only", map[string]int64{"mfact": 90}, 0.1},
	}
	for _, c := range cases {
		got, ok := deliveredErr(traceResult("A", c.totals, string(core.KindDeadlock)))
		if !ok || !near(got, c.want) {
			t.Errorf("%s: delivered error %v (%v), want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := deliveredErr(traceResult("A", map[string]int64{"mfact": -1}, string(core.KindPanic))); ok {
		t.Error("a trace without any completed prediction has a delivered error")
	}
	rs := []*core.TraceResult{traceResult("A", cases[0].totals, ""), traceResult("B", cases[2].totals, ""), nil}
	if got := meanDeliveredErrPct(rs); !near(got, 6.5) {
		t.Errorf("err_tiered_pct = %v, want 6.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Start: ms(20), End: ms(40)},  // overlaps span 1
		{ID: 3, Parent: 0, Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 4, Parent: 1, Start: ms(12), End: ms(18)},  // a grandchild
	}
	want := []time.Duration{ms(100 - 30 - 10), ms(20 - 6), ms(20), ms(30), ms(6)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDigestIgnoresSchemeMapOrder(t *testing.T) {
	ps := []workload.Params{{App: "A"}, {App: "B"}}
	build := func(order []string) []*core.TraceResult {
		r := &core.TraceResult{Schemes: map[string]scheme.Outcome{}}
		for i, n := range order {
			r.Schemes[n] = scheme.Outcome{Scheme: n, OK: i != 2, Total: simtime.Time(100 + len(n)), Comm: 7, Events: uint64(len(n))}
		}
		return []*core.TraceResult{r, nil}
	}
	base := digest(ps, build([]string{"mfact", "packet", "flow", "packetflow", "custom"}))
	for i := 0; i < 50; i++ {
		if d := digest(ps, build([]string{"custom", "packetflow", "flow", "packet", "mfact"})); d != base {
			t.Fatalf("digest changed with insertion order: %s vs %s", d, base)
		}
	}
	changed := build([]string{"mfact", "packet", "flow", "packetflow", "custom"})
	o := changed[0].Schemes["flow"]
	o.Comm++
	changed[0].Schemes["flow"] = o
	if digest(ps, changed) == base {
		t.Error("digest ignores a changed communication time")
	}
}

func TestLayerSumsAccountForTheCampaign(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(spanCampaign, "", "")
	one := rec.begin(spanRunOne, passFull, "k")
	acq := rec.begin(spanAcquire, "", "k")
	mat := rec.begin(spanMaterialize, "", "k")
	rec.end(mat)
	rec.end(acq)
	rec.setDetail(acq, "miss")
	sim := rec.begin(spanReplay, "flow", "k")
	rec.end(sim)
	rec.end(one)
	rec.end(root)
	gen := map[string]time.Duration{"k": rec.spans[mat].dur() / 4}
	m := layerSums(rec, gen)
	if got, want := m["workload.generate_s"]+m["stamp.busy_s"], rec.spans[mat].dur().Seconds(); !near(got, want) {
		t.Errorf("generate plus stamp = %v, want the materialization's %v", got, want)
	}
	if !near(m["workload.generate_s"], gen["k"].Seconds()) {
		t.Errorf("generate = %v, want the separately timed %v", m["workload.generate_s"], gen["k"].Seconds())
	}
	if got, want := layerBusy(m), rec.spans[root].dur().Seconds(); !near(got, want) {
		t.Errorf("layers plus core self time = %v, want the campaign's %v", got, want)
	}
	if m["core.trace_wall_max_s"] != rec.spans[one].dur().Seconds() {
		t.Errorf("trace wall max = %v, want the trace's run %v", m["core.trace_wall_max_s"], rec.spans[one].dur().Seconds())
	}
}

func TestTriageSpansCoverThePhaseGaps(t *testing.T) {
	rec := newRecorder()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec.spans = []span{
		{ID: 0, Parent: -1, Name: spanCampaign, Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: spanRunOne, Detail: passCalibration, Start: ms(1), End: ms(10)},
		{ID: 2, Parent: 0, Name: spanRunOne, Detail: passModel, Start: ms(30), End: ms(40)},
		{ID: 3, Parent: 0, Name: spanRunOne, Detail: passModel, Start: ms(40), End: ms(50)},
		{ID: 4, Parent: 0, Name: spanRunOne, Detail: passEscalation, Start: ms(55), End: ms(90)},
	}
	addTriageSpans(rec, 0)
	m := layerSums(rec, nil)
	if want := (ms(20) + ms(5)).Seconds(); !near(m["triage.self_s"], want) {
		t.Errorf("triage self time %v, want %v", m["triage.self_s"], want)
	}
}

// The metric lists the program prints must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", got, want)
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json %s", i, w.name, names[i])
		}
		if _, err := compileSpec(w.name); err != nil {
			t.Errorf("workload %s: %v", w.name, err)
		}
	}
}
