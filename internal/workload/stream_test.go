package workload

import (
	"testing"

	"hpctradeoff/internal/trace"
)

// streamParams is a small cross-section of the suite: a stencil code,
// a comm-split app, and an alltoallv-heavy app, so the streamed path
// covers every event family.
func streamParams() []Params {
	return []Params{
		{App: "MiniFE", Class: "S", Ranks: 8, Machine: "hopper", Seed: 11},
		{App: "BigFFT", Class: "S", Ranks: 8, Machine: "hopper", Seed: 12},
		{App: "CrystalRouter", Class: "S", Ranks: 6, Machine: "edison", Seed: 13},
	}
}

// generate is GenerateColumns materialized into the array-of-structs
// form that structural assertions index directly.
func generate(p Params) (*trace.Trace, error) {
	c, err := GenerateColumns(p)
	if err != nil {
		return nil, err
	}
	return c.Materialize(), nil
}

// materialize is MaterializeColumns in array-of-structs form.
func materialize(p Params) (*trace.Trace, error) {
	c, err := MaterializeColumns(p)
	if err != nil {
		return nil, err
	}
	return c.Materialize(), nil
}

// TestGenerateColumnsMatchesGenerate holds GenerateColumns to the
// reference: the same generator run through Builder.Build, which
// stores array-of-structs rows instead of columns.
func TestGenerateColumnsMatchesGenerate(t *testing.T) {
	for _, p := range streamParams() {
		t.Run(p.App, func(t *testing.T) {
			b, g, err := generateWindow(p, 0, -1)
			if err != nil {
				t.Fatalf("generateWindow: %v", err)
			}
			tr, err := b.Build()
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if g.usesCommSplit {
				tr.Meta.UsesCommSplit = true
			}
			cols, err := GenerateColumns(p)
			if err != nil {
				t.Fatalf("GenerateColumns: %v", err)
			}
			if cols.Meta != tr.Meta {
				t.Fatalf("meta differs: %+v vs %+v", cols.Meta, tr.Meta)
			}
			requireSourceEqual(t, tr, cols)
		})
	}
}

func TestStreamMatchesGenerate(t *testing.T) {
	for _, p := range streamParams() {
		for _, chunk := range []int{1, 3, p.Ranks} {
			tr, err := generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p.App, err)
			}
			seen := make([]bool, p.Ranks)
			err = p.Stream(chunk, func(rank int, cur trace.Cursor) error {
				if seen[rank] {
					t.Fatalf("%s chunk %d: rank %d streamed twice", p.App, chunk, rank)
				}
				seen[rank] = true
				if cur.Len() != len(tr.Ranks[rank]) {
					t.Fatalf("%s chunk %d rank %d: %d events streamed, want %d",
						p.App, chunk, rank, cur.Len(), len(tr.Ranks[rank]))
				}
				var e trace.Event
				for i := 0; cur.Next(&e); i++ {
					if !sameEvent(&e, &tr.Ranks[rank][i]) {
						t.Fatalf("%s chunk %d rank %d event %d: streamed %+v, generated %+v",
							p.App, chunk, rank, i, e, tr.Ranks[rank][i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: Stream: %v", p.App, err)
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("%s chunk %d: rank %d never streamed", p.App, chunk, r)
				}
			}
		}
	}
}

func requireSourceEqual(t *testing.T, want *trace.Trace, got trace.Source) {
	t.Helper()
	var e trace.Event
	for r := range want.Ranks {
		if got.RankLen(r) != len(want.Ranks[r]) {
			t.Fatalf("rank %d: %d events, want %d", r, got.RankLen(r), len(want.Ranks[r]))
		}
		for i := range want.Ranks[r] {
			got.EventAt(r, i, &e)
			if !sameEvent(&e, &want.Ranks[r][i]) {
				t.Fatalf("rank %d event %d: %+v, want %+v", r, i, e, want.Ranks[r][i])
			}
		}
	}
}

func sameEvent(a, b *trace.Event) bool {
	if a.Op != b.Op || a.Entry != b.Entry || a.Exit != b.Exit ||
		a.Peer != b.Peer || a.Tag != b.Tag || a.Root != b.Root ||
		a.Req != b.Req || a.Comm != b.Comm || a.Bytes != b.Bytes ||
		len(a.Reqs) != len(b.Reqs) || len(a.SendBytes) != len(b.SendBytes) {
		return false
	}
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			return false
		}
	}
	for i := range a.SendBytes {
		if a.SendBytes[i] != b.SendBytes[i] {
			return false
		}
	}
	return true
}
