package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"

	"hpctradeoff/internal/core"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/workload"
)

// schemeOrder is the fixed order in which the digest and the error
// metrics walk a trace's outcomes; a scheme outside it follows, sorted
// by name.
var schemeOrder = []string{scheme.MFACT, scheme.Packet, scheme.Flow, scheme.PacketFlow}

// orderedSchemes lists the schemes present in a trace's outcome map in
// schemeOrder, so no result depends on map iteration order.
func orderedSchemes(outs map[string]scheme.Outcome) []string {
	var names, rest []string
	for _, n := range schemeOrder {
		if _, ok := outs[n]; ok {
			names = append(names, n)
		}
	}
	for n := range outs {
		if !slices.Contains(schemeOrder, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

// digest is a sha256 over every trace's (key, scheme, OK, Total, Comm,
// Events), in manifest order and schemeOrder. Two builds produce the
// same digest only if they predict bit-identical times. A missing
// result hashes as its key alone.
func digest(ps []workload.Params, rs []*core.TraceResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for i, p := range ps {
		str(core.CampaignKey(p))
		if rs[i] == nil {
			put(0)
			continue
		}
		names := orderedSchemes(rs[i].Schemes)
		put(uint64(len(names)))
		for _, n := range names {
			o := rs[i].Schemes[n]
			str(n)
			ok := uint64(0)
			if o.OK {
				ok = 1
			}
			put(ok)
			put(uint64(o.Total))
			put(uint64(o.Comm))
			put(o.Events)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally counts (trace, scheme) runs. A trace with no result counts
// every selected scheme as attempted and failed, under kindMissing.
type tally struct {
	Attempted, OK int
	// ByKind buckets the runs that did not succeed by Outcome.ErrKind.
	ByKind map[string]int
}

const kindMissing = "missing"

func countRuns(rs []*core.TraceResult, selected int) tally {
	t := tally{ByKind: map[string]int{}}
	for _, r := range rs {
		if r == nil {
			t.Attempted += selected
			t.ByKind[kindMissing] += selected
			continue
		}
		for _, o := range r.Schemes {
			t.Attempted++
			if o.OK {
				t.OK++
			} else {
				t.ByKind[o.ErrKind]++
			}
		}
	}
	return t
}

// failed counts the runs that failed for a reason other than a
// capability gap. A gap is the scheme declining a trace whose features
// it cannot replay, before any simulation: the expected answer, which
// ok_frac still counts against the scheme.
func (t tally) failed() int {
	n := 0
	for k, c := range t.ByKind {
		if k != string(core.KindUnsupported) {
			n += c
		}
	}
	return n
}

func (t tally) okFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.OK) / float64(t.Attempted)
}

// meanErrPct is the mean of ErrVsMeasured, in percent, over the traces
// on which the named scheme completed, with that trace count.
func meanErrPct(rs []*core.TraceResult, name string) (float64, int) {
	var sum float64
	n := 0
	for _, r := range rs {
		if r == nil {
			continue
		}
		if e, ok := r.ErrVsMeasured(name); ok {
			sum += e
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * sum / float64(n), n
}

// deliveredErr is the error of the prediction a campaign delivers for
// a trace: packetflow's when it ran and succeeded, else MFACT's.
func deliveredErr(r *core.TraceResult) (float64, bool) {
	if e, ok := r.ErrVsMeasured(scheme.PacketFlow); ok {
		return e, true
	}
	return r.ErrVsMeasured(scheme.MFACT)
}

// meanDeliveredErrPct is deliveredErr's mean over the traces that have
// one, in percent.
func meanDeliveredErrPct(rs []*core.TraceResult) float64 {
	var sum float64
	n := 0
	for _, r := range rs {
		if r == nil {
			continue
		}
		if e, ok := deliveredErr(r); ok {
			sum += e
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
