package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span covers one call into a layer's public API, made from the
// benchmark's own code. Spans of one manifest entry share Trace (its
// campaign key); campaign-level spans have an empty Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	// Detail qualifies the call: the network model of a replay, "hit"
	// or "miss" for a cache acquisition, the campaign pass of a trace
	// run.
	Detail string        `json:"detail,omitempty"`
	Trace  string        `json:"trace,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the recorder's epoch
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans and counters in memory. Spans nest by call
// order: a span begun while another is open is its child, which holds
// because the traced campaign runs one worker. A nil *recorder records
// nothing, so untraced runs share the traced code paths at the cost of
// a nil check.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	open   []int
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name, detail, trace string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Trace: trace, Start: time.Since(r.epoch)})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("campaignbench: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = time.Since(r.epoch)
}

// setDetail sets the detail of span id once it is known (a cache
// acquisition learns whether it hit only when it returns).
func (r *recorder) setDetail(id int, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Detail = detail
	r.mu.Unlock()
}

// add records a span derived after the fact, such as the gap between
// two campaign phases, under parent.
func (r *recorder) add(name string, parent int, start, end time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: start, End: end})
}

// count adds v to the named counter.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// writeSpans writes the recorders' spans to path as JSON lines, one
// recorder after another.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Overlapping children count once
// and are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
