// Command campaignbench is the repository's end-to-end benchmark. It
// compiles one of its campaign specs, runs the campaign through
// core.RunCampaign with one worker for a fixed time, checks the
// results, and prints the metrics as the last line of standard output,
// one JSON object. --trace 1 reports per-layer metrics from spans taken
// around each layer's calls instead. README.md describes the workloads
// and metrics; run.sh builds and runs it.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/spec"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/workload"
)

//go:embed specs/*.yaml
var specFS embed.FS

// A workload is one campaign spec. Warm workloads fill a trace cache
// during set-up, so their timed campaigns read every trace from it.
type workloadDef struct {
	name string
	warm bool
}

var workloads = []workloadDef{
	{name: "stencil-cold"},
	{name: "tiered-warm", warm: true},
}

// workDir, relative to the repository root the benchmark runs from,
// holds the trace caches of a run and the span files.
var workDir = filepath.Join(".bench_build", "campaignbench")

// Set-up runs at least minSetups times and until minSetupTime has
// passed; setup_s is the median. A cold set-up takes well under a
// millisecond, so it repeats thousands of times.
const (
	minSetups    = 3
	minSetupTime = 500 * time.Millisecond
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"campaign_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"err_mfact_pct", "%"},
	{"err_packet_pct", "%"},
	{"err_flow_pct", "%"},
	{"err_packetflow_pct", "%"},
	{"full_fidelity_frac", "ratio"},
	{"err_tiered_pct", "%"},
}

var perLayer = func() []metricDef {
	ms := []metricDef{
		{"workload.generate_s", "s"},
		{"workload.trace_events", "count"},
		{"stamp.busy_s", "s"},
		{"stamp.ns_per_trace_event", "ns"},
	}
	for _, m := range simModels {
		p := "sim." + m + "."
		ms = append(ms,
			metricDef{p + "busy_s", "s"},
			metricDef{p + "des_events", "count"},
			metricDef{p + "ns_per_des_event", "ns"},
			metricDef{p + "messages", "count"},
			metricDef{p + "packets", "count"},
			metricDef{p + "flow_updates", "count"},
			metricDef{p + "failed", "count"})
	}
	return append(ms,
		metricDef{"tracecache.acquire_s", "s"},
		metricDef{"tracecache.publish_s", "s"},
		metricDef{"tracecache.hits", "count"},
		metricDef{"tracecache.misses", "count"},
		metricDef{"tracecache.corrupt", "count"},
		metricDef{"tracecache.mapped_mb", "MB"},
		metricDef{"tracecache.written_mb", "MB"},
		metricDef{"mfact.busy_s", "s"},
		metricDef{"mfact.trace_events", "count"},
		metricDef{"mfact.ns_per_trace_event", "ns"},
		metricDef{"features.busy_s", "s"},
		metricDef{"triage.model_wall_s", "s"},
		metricDef{"triage.escalation_wall_s", "s"},
		metricDef{"triage.calibration", "count"},
		metricDef{"triage.flagged", "count"},
		metricDef{"triage.model_only", "count"},
		metricDef{"triage.self_s", "s"},
		metricDef{"core.self_s", "s"},
		metricDef{"core.alloc_mb", "MB"},
		metricDef{"core.gc_cycles", "count"},
		metricDef{"core.gc_cpu_s", "s"},
		metricDef{"core.trace_wall_p50_s", "s"},
		metricDef{"core.trace_wall_max_s", "s"},
		metricDef{"spec.compile_s", "s"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed, added to every compiled Params.Seed; 0 reproduces the committed manifests, 7 is held out for confirming claims")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics from an untraced one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: campaignbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1, log: stderr}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %s: %v\n", w.name, err)
		return 2
	}
	if b.traced {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, b.seed))
		if err := writeSpans(path, b.setupSpans, b.campaignSpans); err != nil {
			fmt.Fprintf(stderr, "campaignbench: writing spans: %v\n", err)
		}
	}
	fmt.Fprintf(stdout, "# %s seed=%d digest=sha256:%s\n", w.name, b.seed, res.digest)
	kinds := make([]string, 0, len(res.tally.ByKind))
	for k := range res.tally.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "# %s runs not ok: %s=%d\n", w.name, k, res.tally.ByKind[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "# %s CHECK FAILED: %s\n", w.name, p)
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{len(res.problems) == 0, res.tally.Attempted, res.tally.failed(), map[string]json.RawMessage{}}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{res.metrics[d.name], d.unit})
		out.Metrics[d.name] = v
		fmt.Fprintf(stderr, "%-30s %14.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// bench is one invocation: a workload, its seed and its time budget.
type bench struct {
	w      workloadDef
	seed   int64
	budget time.Duration
	traced bool
	log    io.Writer
	dir    string
	// setupSpans and campaignSpans hold the last traced set-up and
	// campaign, written out when a traced run ends.
	setupSpans, campaignSpans *recorder
}

type result struct {
	metrics  map[string]float64
	digest   string
	tally    tally
	problems []string
}

// prepared is a compiled workload ready to run.
type prepared struct {
	ps  []workload.Params
	cfg core.CampaignConfig
}

// setup compiles the workload's spec, offsets its seeds, and on a warm
// workload fills a fresh trace cache in dir with every manifest entry.
func (b *bench) setup(rec *recorder, dir string) (*prepared, error) {
	root := rec.begin(spanSetup, b.w.name, "")
	defer rec.end(root)
	id := rec.begin(spanCompile, "", "")
	c, err := compileSpec(b.w.name)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	p := &prepared{ps: seeded(c.Manifest, b.seed), cfg: c.Config()}
	if !b.w.warm {
		return p, nil
	}
	cache, err := tracecache.Open(dir, tracecache.Options{Warnf: func(f string, a ...any) { fmt.Fprintf(b.log, f+"\n", a...) }})
	if err != nil {
		return nil, err
	}
	for _, q := range p.ps {
		_, release, err := acquire(rec, cache, q, core.CampaignKey(q), workload.Limits{MaxEvents: c.MaxEvents})
		if err != nil {
			return nil, fmt.Errorf("filling the trace cache: %w", err)
		}
		release()
	}
	if rec != nil {
		addCacheStats(rec, cache.Stats())
	}
	p.cfg.Cache = cache
	return p, nil
}

func compileSpec(name string) (*spec.Compiled, error) {
	data, err := specFS.ReadFile("specs/" + name + ".yaml")
	if err != nil {
		return nil, err
	}
	s, err := spec.Parse(data)
	if err != nil {
		return nil, err
	}
	return spec.Compile(s)
}

// seeded returns the manifest with seed added to every Params.Seed.
func seeded(ps []workload.Params, seed int64) []workload.Params {
	out := append([]workload.Params(nil), ps...)
	for i := range out {
		out[i].Seed += seed
	}
	return out
}

func addCacheStats(rec *recorder, s tracecache.Stats) {
	rec.count("tracecache.hits", float64(s.Hits))
	rec.count("tracecache.misses", float64(s.Misses))
	rec.count("tracecache.corrupt", float64(s.Corrupt))
	rec.count("tracecache.mapped_mb", float64(s.BytesMapped)/1e6)
	rec.count("tracecache.written_mb", float64(s.BytesWritten)/1e6)
}

// campaign is one timed core.RunCampaign call.
type campaign struct {
	wall   time.Duration
	rs     []*core.TraceResult
	rep    *core.CampaignReport
	layers map[string]float64 // traced campaigns only
}

// runCampaign runs the prepared campaign once, traced when rec is
// non-nil.
func (b *bench) runCampaign(p *prepared, rec *recorder, gen map[string]time.Duration) (*campaign, error) {
	cfg := p.cfg
	if rec != nil {
		cfg.Runner = newTracedRunner(rec, p.ps, cfg).run
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	var cache0 tracecache.Stats
	if rec != nil {
		runtime.ReadMemStats(&ms0)
		if cfg.Cache != nil {
			cache0 = cfg.Cache.Stats()
		}
	}
	gc0 := gcCPUSeconds()
	root := rec.begin(spanCampaign, "", "")
	start := time.Now()
	rs, rep, err := core.RunCampaign(p.ps, cfg)
	wall := time.Since(start)
	rec.end(root)
	if err != nil {
		return nil, err
	}
	c := &campaign{wall: wall, rs: rs, rep: rep}
	if rec == nil {
		return c, nil
	}
	runtime.ReadMemStats(&ms1)
	if cfg.Cache != nil {
		addCacheStats(rec, cfg.Cache.Stats().Sub(cache0))
	}
	addTriageSpans(rec, root)
	c.layers = layerSums(rec, gen)
	c.layers["core.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	c.layers["core.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	c.layers["core.gc_cpu_s"] = gcCPUSeconds() - gc0
	if t := rep.Triage; t != nil {
		c.layers["triage.model_wall_s"] = t.ModelWall.Seconds()
		c.layers["triage.escalation_wall_s"] = t.EscalationWall.Seconds()
		c.layers["triage.calibration"] = float64(t.Calibration)
		c.layers["triage.flagged"] = float64(t.Flagged)
		c.layers["triage.model_only"] = float64(t.ModelOnly)
	}
	fmt.Fprintf(b.log, "traced campaign %.3fs: layers plus core self time account for %.3fs\n",
		wall.Seconds(), layerBusy(c.layers))
	return c, nil
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// run sets the workload up, measures it for the time budget, and checks
// every campaign it ran.
func (b *bench) run() (*result, error) {
	// A traced run times each trace's generation alone, before and
	// outside every timed phase, to split materialization into
	// generate and stamp.
	var gen map[string]time.Duration
	if b.traced {
		c, err := compileSpec(b.w.name)
		if err != nil {
			return nil, err
		}
		gen = map[string]time.Duration{}
		for _, q := range seeded(c.Manifest, b.seed) {
			start := time.Now()
			if _, err := workload.GenerateColumns(q); err != nil {
				return nil, err
			}
			gen[core.CampaignKey(q)] += time.Since(start)
		}
	}

	var setupWalls []float64
	var setupLayers []map[string]float64
	var p *prepared
	setupStart := time.Now()
	for i := 0; i < minSetups || time.Since(setupStart) < minSetupTime; i++ {
		var rec *recorder
		if b.traced {
			rec = newRecorder()
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", i))
		start := time.Now()
		q, err := b.setup(rec, dir)
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if p != nil && p.cfg.Cache != nil {
			os.RemoveAll(p.cfg.Cache.Dir())
		}
		p = q
		if rec != nil {
			setupLayers = append(setupLayers, layerSums(rec, gen))
			b.setupSpans = rec
		}
	}

	// Untraced and traced campaigns alternate in a traced run; an
	// untraced run makes only untraced ones. A campaign starts only if
	// its kind's median so far still fits the budget.
	var plain, traced []float64
	var last *campaign
	res := &result{metrics: map[string]float64{}}
	var campLayers []map[string]float64
	start := time.Now()
	for i := 0; ; i++ {
		useTrace := b.traced && i%2 == 1
		walls := plain
		if useTrace {
			walls = traced
		}
		if len(walls) > 0 && time.Since(start)+secs(median(walls)) > b.budget {
			break
		}
		var rec *recorder
		if useTrace {
			rec = newRecorder()
		}
		c, err := b.runCampaign(p, rec, gen)
		if err != nil {
			return nil, err
		}
		d := digest(p.ps, c.rs)
		if res.digest == "" {
			res.digest = d
		} else if d != res.digest {
			res.problems = append(res.problems, fmt.Sprintf("campaign %d digest %s differs from the first campaign's %s", i, d, res.digest))
		}
		res.problems = append(res.problems, b.check(c)...)
		if useTrace {
			traced = append(traced, c.wall.Seconds())
			campLayers = append(campLayers, c.layers)
			b.campaignSpans = rec
		} else {
			plain = append(plain, c.wall.Seconds())
		}
		last = c
		if b.traced && len(traced) == 0 {
			continue
		}
		if time.Since(start) >= b.budget {
			break
		}
	}
	fmt.Fprintf(b.log, "%s seed=%d: %d set-ups, untraced campaigns %v s, traced %v s\n", b.w.name, b.seed, len(setupWalls), rounded(plain), rounded(traced))

	res.tally = countRuns(last.rs, len(schemesOf(p.cfg)))
	if b.traced {
		res.metrics = layerReport(setupLayers, campLayers, traced, plain)
		return res, nil
	}
	m := res.metrics
	m["campaign_s"] = median(plain)
	m["setup_s"] = median(setupWalls)
	m["peak_rss_mb"] = peakRSSMB()
	m["ok_frac"] = res.tally.okFrac()
	for _, s := range schemeOrder {
		m["err_"+s+"_pct"], _ = meanErrPct(last.rs, s)
	}
	m["full_fidelity_frac"] = 1
	if t := last.rep.Triage; t != nil {
		m["full_fidelity_frac"] = t.EscalationRate
	}
	m["err_tiered_pct"] = meanDeliveredErrPct(last.rs)
	return res, nil
}

func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func schemesOf(cfg core.CampaignConfig) []string {
	if len(cfg.Schemes) > 0 {
		return cfg.Schemes
	}
	return scheme.Names()
}

// check returns the correctness problems of one campaign.
func (b *bench) check(c *campaign) []string {
	var probs []string
	for i, r := range c.rs {
		if r == nil {
			probs = append(probs, fmt.Sprintf("trace %d has no result", i))
		}
	}
	for _, e := range c.rep.Errors {
		probs = append(probs, e.Error())
	}
	for _, r := range c.rs {
		if r == nil {
			continue
		}
		for _, n := range orderedSchemes(r.Schemes) {
			if o := r.Schemes[n]; !o.OK && o.ErrKind != string(core.KindUnsupported) {
				probs = append(probs, fmt.Sprintf("%s on %s failed (%s): %s", n, r.ID, o.ErrKind, o.Err))
			}
		}
	}
	if b.w.warm {
		if s := c.rep.Cache; s == nil || s.Misses != 0 || s.Corrupt != 0 {
			probs = append(probs, fmt.Sprintf("warm campaign did not read every trace from the cache: %+v", s))
		}
	}
	if p := c.rep.Triage; p != nil && p.ClassifierDown {
		probs = append(probs, "triage classifier down: "+p.ClassifierErr)
	}
	return probs
}

// layerReport combines the median set-up and the median traced
// campaign into the per-layer metrics.
func layerReport(setups, camps []map[string]float64, traced, plain []float64) map[string]float64 {
	m := medianMap(setups)
	for k, v := range medianMap(camps) {
		m[k] += v
	}
	ratio := func(busy, count string) float64 {
		if m[count] == 0 {
			return 0
		}
		return 1e9 * m[busy] / m[count]
	}
	m["stamp.ns_per_trace_event"] = ratio("stamp.busy_s", "workload.trace_events")
	m["mfact.ns_per_trace_event"] = ratio("mfact.busy_s", "mfact.trace_events")
	for _, s := range simModels {
		p := "sim." + s + "."
		m[p+"ns_per_des_event"] = ratio(p+"busy_s", p+"des_events")
	}
	m["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	return m
}

// medianMap is the per-key median over maps; a key missing from a map
// counts as 0 there.
func medianMap(ms []map[string]float64) map[string]float64 {
	keys := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			keys[k] = true
		}
	}
	out := map[string]float64{}
	for k := range keys {
		vs := make([]float64, len(ms))
		for i, m := range ms {
			vs[i] = m[k]
		}
		out[k] = median(vs)
	}
	return out
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
