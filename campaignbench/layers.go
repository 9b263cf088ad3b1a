package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/des"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/triage"
	"hpctradeoff/internal/workload"
)

// Span names: each is the layer function the span wraps.
const (
	spanCampaign    = "core.RunCampaign"
	spanRunOne      = "core.RunOne"
	spanSetup       = "bench.setup"
	spanCompile     = "spec.Compile"
	spanAcquire     = "tracecache.Acquire"
	spanMaterialize = "workload.MaterializeColumns"
	spanModel       = "mfact.Session.Model"
	spanReplay      = "mpisim.Session.Replay"
	spanFeatures    = "features.ExtractSource"
	spanTrain       = "triage.train"
	spanPlan        = "triage.plan"
)

// The passes a tiered campaign makes over a trace, recorded as the
// detail of its core.RunOne spans.
const (
	passFull        = "full"
	passCalibration = "calibration"
	passModel       = "model"
	passEscalation  = "escalation"
)

// acquire returns p's ground-truth-stamped columns the way
// core.Runner.RunOne does: through the cache when there is one,
// otherwise by materializing them. The release function is never nil.
func acquire(rec *recorder, cache *tracecache.Cache, p workload.Params, key string, lim workload.Limits) (*trace.Columns, func(), error) {
	materialize := func() (*trace.Columns, error) {
		id := rec.begin(spanMaterialize, "", key)
		cols, err := workload.MaterializeColumnsLimits(p, lim)
		rec.end(id)
		if err == nil {
			rec.count("workload.trace_events", float64(trace.SourceNumEvents(cols)))
		}
		return cols, err
	}
	if cache == nil {
		cols, err := materialize()
		return cols, func() {}, err
	}
	id := rec.begin(spanAcquire, "", key)
	cols, release, hit, err := cache.Acquire(p, materialize)
	rec.end(id)
	if hit {
		rec.setDetail(id, "hit")
	} else {
		rec.setDetail(id, "miss")
	}
	return cols, release, err
}

// tracedRunner runs one trace the way core.Runner.RunOne does, with a
// span around each call into a layer. core.RunCampaign calls it through
// CampaignConfig.Runner. That seam does not say which schemes a pass
// wants, so the runner follows core's tiered schedule: the first run
// of a trace outside the calibration split is the MFACT-only model
// pass, every other run is the full scheme set. The benchmark checks
// that a traced campaign's digest equals the untraced one, so a drift
// from core's schedule fails the run instead of skewing its numbers.
type tracedRunner struct {
	rec     *recorder
	cache   *tracecache.Cache
	schemes []string
	tiered  bool
	calib   map[string]bool
	runs    map[string]int
	model   *mfact.Session
	sims    map[string]*mpisim.Session
}

func newTracedRunner(rec *recorder, ps []workload.Params, cfg core.CampaignConfig) *tracedRunner {
	t := &tracedRunner{
		rec:     rec,
		cache:   cfg.Cache,
		schemes: cfg.Schemes,
		calib:   map[string]bool{},
		runs:    map[string]int{},
		model:   mfact.NewSession(),
		sims:    map[string]*mpisim.Session{},
	}
	if len(t.schemes) == 0 {
		t.schemes = scheme.Names()
	}
	for _, n := range t.schemes {
		if n != scheme.MFACT {
			t.sims[n] = mpisim.NewSession()
		}
	}
	if cfg.Triage != nil {
		sched := triage.New(cfg.Triage.Normalize(len(ps)))
		t.tiered = sched.NeedsClassifier()
		for _, i := range sched.CalibrationIndices(len(ps)) {
			t.calib[core.CampaignKey(ps[i])] = true
		}
	}
	return t
}

func (t *tracedRunner) pass(key string) string {
	t.runs[key]++
	switch {
	case !t.tiered:
		return passFull
	case t.calib[key]:
		return passCalibration
	case t.runs[key] == 1:
		return passModel
	}
	return passEscalation
}

// run has the signature of CampaignConfig.Runner.
func (t *tracedRunner) run(p workload.Params, ro core.RunOptions) (*core.TraceResult, error) {
	key := core.CampaignKey(p)
	pass := t.pass(key)
	names := t.schemes
	if pass == passModel {
		names = []string{scheme.MFACT}
	}
	id := t.rec.begin(spanRunOne, pass, key)
	defer t.rec.end(id)

	var deadline time.Time
	if ro.Timeout > 0 {
		deadline = time.Now().Add(ro.Timeout)
	}
	cols, release, err := acquire(t.rec, t.cache, p, key, workload.Limits{Deadline: deadline, MaxEvents: ro.MaxEvents, Cancel: ro.Cancel})
	if err != nil {
		return nil, err
	}
	defer release()
	mach, err := machine.New(p.Machine, p.Ranks, p.RanksPerNode)
	if err != nil {
		return nil, err
	}
	res := &core.TraceResult{
		Params:       p,
		ID:           cols.TraceMeta().ID(),
		Measured:     trace.SourceMeasuredTotal(cols),
		MeasuredComm: trace.SourceMeasuredComm(cols),
		CommFraction: trace.SourceCommFraction(cols),
		Events:       trace.SourceNumEvents(cols),
		Schemes:      make(map[string]scheme.Outcome, len(names)),
	}
	opts := mpisim.Options{Deadline: deadline, MaxEvents: ro.MaxEvents, Cancel: ro.Cancel}
	for _, name := range names {
		out, err := t.runScheme(name, key, cols, mach, opts)
		if err != nil {
			if errors.Is(err, des.ErrBudgetExceeded) || errors.Is(err, des.ErrCanceled) {
				return nil, fmt.Errorf("running %s on %s: %w", name, res.ID, err)
			}
			out.Err = err.Error()
			out.ErrKind = string(core.Classify(err))
		}
		res.Schemes[name] = out
	}
	fid := t.rec.begin(spanFeatures, "", key)
	res.Features = features.ExtractSource(cols, res.Model())
	t.rec.end(fid)
	return res, nil
}

// runScheme is the scheme adapter's body with the layer call in a span.
func (t *tracedRunner) runScheme(name, key string, src trace.Source, mach *machine.Config, opts mpisim.Options) (scheme.Outcome, error) {
	if name == scheme.MFACT {
		out := scheme.Outcome{Scheme: name, Kind: scheme.KindModel}
		id := t.rec.begin(spanModel, "", key)
		start := time.Now()
		res, err := t.model.Model(src, mach, nil)
		out.Wall = time.Since(start)
		t.rec.end(id)
		if err != nil {
			return out, err
		}
		t.rec.count("mfact.trace_events", float64(res.Events))
		out.OK, out.Total, out.Comm, out.Events, out.Model = true, res.Total(), res.Comm(), uint64(res.Events), res
		return out, nil
	}
	sess, ok := t.sims[name]
	if !ok {
		return scheme.Outcome{}, fmt.Errorf("campaignbench: no traced replay for scheme %q", name)
	}
	out := scheme.Outcome{Scheme: name, Kind: scheme.KindSimulation}
	id := t.rec.begin(spanReplay, name, key)
	start := time.Now()
	res, err := sess.Replay(src, simnet.Model(name), mach, simnet.Config{}, opts)
	out.Wall = time.Since(start)
	t.rec.end(id)
	pre := "sim." + name + "."
	if err != nil {
		t.rec.count(pre+"failed", 1)
		return out, err
	}
	t.rec.count(pre+"des_events", float64(res.Events))
	t.rec.count(pre+"messages", float64(res.Net.Messages))
	t.rec.count(pre+"packets", float64(res.Net.Packets))
	t.rec.count(pre+"flow_updates", float64(res.Net.FlowUpdates))
	out.OK, out.Total, out.Comm, out.Events = true, res.Total, res.Comm, res.Events
	return out, nil
}

// addTriageSpans records the tiered campaign's own work as spans under
// the campaign span: training runs between the last calibration run
// and the first model-pass run, scoring and planning between the last
// model-pass run and the first escalation (or the campaign's end).
func addTriageSpans(rec *recorder, campaign int) {
	first := map[string]time.Duration{}
	last := map[string]time.Duration{}
	for _, s := range rec.spans {
		if s.Name != spanRunOne {
			continue
		}
		if _, ok := first[s.Detail]; !ok {
			first[s.Detail] = s.Start
		}
		last[s.Detail] = s.End
	}
	calEnd, ok1 := last[passCalibration]
	modelStart, ok2 := first[passModel]
	if !ok1 || !ok2 {
		return
	}
	rec.add(spanTrain, campaign, calEnd, modelStart)
	planEnd, ok := first[passEscalation]
	if !ok {
		planEnd = rec.spans[campaign].End
	}
	rec.add(spanPlan, campaign, last[passModel], planEnd)
}

// layerSums turns one traced phase (a set-up or a campaign) into the
// additive per-layer quantities: busy seconds, self seconds and the
// recorder's counters. gen holds each trace's separately timed
// generation, which splits a materialization into generate and stamp.
func layerSums(rec *recorder, gen map[string]time.Duration) map[string]float64 {
	m := map[string]float64{}
	for k, v := range rec.counts {
		m[k] = v
	}
	self := selfTimes(rec.spans)
	wall := map[string]time.Duration{}
	for i, s := range rec.spans {
		d := s.dur().Seconds()
		switch s.Name {
		case spanMaterialize:
			g := gen[s.Trace].Seconds()
			m["workload.generate_s"] += g
			m["stamp.busy_s"] += d - g
		case spanAcquire:
			if s.Detail == "hit" {
				m["tracecache.acquire_s"] += d
			} else {
				m["tracecache.publish_s"] += self[i].Seconds()
			}
		case spanModel:
			m["mfact.busy_s"] += d
		case spanReplay:
			m["sim."+s.Detail+".busy_s"] += d
		case spanFeatures:
			m["features.busy_s"] += d
		case spanTrain, spanPlan:
			m["triage.self_s"] += d
		case spanCompile:
			m["spec.compile_s"] += d
		case spanCampaign:
			m["core.self_s"] += self[i].Seconds()
		case spanRunOne:
			m["core.self_s"] += self[i].Seconds()
			wall[s.Trace] += s.dur()
		}
	}
	if len(wall) > 0 {
		ws := make([]float64, 0, len(wall))
		for _, w := range wall {
			ws = append(ws, w.Seconds())
		}
		sort.Float64s(ws)
		m["core.trace_wall_p50_s"] = median(ws)
		m["core.trace_wall_max_s"] = ws[len(ws)-1]
	}
	return m
}

// layerBusy sums the busy and self times layerSums reports for one
// campaign; with core.self_s it covers the campaign span.
func layerBusy(m map[string]float64) float64 {
	var sum float64
	for _, k := range []string{"workload.generate_s", "stamp.busy_s", "tracecache.acquire_s", "tracecache.publish_s",
		"mfact.busy_s", "features.busy_s", "triage.self_s", "core.self_s"} {
		sum += m[k]
	}
	for _, n := range simModels {
		sum += m["sim."+n+".busy_s"]
	}
	return sum
}

var simModels = []string{scheme.Packet, scheme.Flow, scheme.PacketFlow}

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
