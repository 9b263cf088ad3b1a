package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"hpctradeoff/internal/simtime"
)

// richProgram drives b through every op family: compute, blocking and
// nonblocking point-to-point, wait and waitall, rooted and unrooted
// collectives, and an alltoallv on a sub-communicator.
func richProgram(b *Builder) {
	c1 := b.AddComm([]int32{0, 2}) // even ranks
	for r := 0; r < 4; r++ {
		b.Compute(r, simtime.Time(10+r))
	}
	q0 := b.Isend(0, 1, 0, 1024, CommWorld)
	q1 := b.Irecv(1, 0, 0, 1024, CommWorld)
	b.Wait(0, q0)
	b.Wait(1, q1)

	b.Send(2, 3, 1, 256, CommWorld)
	b.Recv(3, 2, 1, 256, CommWorld)

	b.Isend(0, 3, 2, 64, CommWorld)
	b.Isend(0, 3, 3, 64, CommWorld)
	b.Irecv(3, 0, 2, 64, CommWorld)
	b.Irecv(3, 0, 3, 64, CommWorld)
	b.WaitOpen(0)
	b.WaitOpen(3)

	for r := 0; r < 4; r++ {
		b.Collective(r, OpAllreduce, CommWorld, 0, 64)
		b.Collective(r, OpBcast, CommWorld, 1, 32)
	}
	for _, r := range []int{0, 2} {
		b.Alltoallv(r, c1, []int64{8, 16})
		b.Collective(r, OpReduce, c1, 2, 128)
	}
	for r := 0; r < 4; r++ {
		b.Compute(r, 5)
	}
}

func richTrace(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder(Meta{App: "rich", Class: "A", Machine: "hopper", NumRanks: 4, RanksPerNode: 2})
	richProgram(b)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

func richColumns(t *testing.T) *Columns {
	t.Helper()
	b := NewBuilder(Meta{App: "rich", Class: "A", Machine: "hopper", NumRanks: 4, RanksPerNode: 2})
	richProgram(b)
	c, err := b.BuildColumns()
	if err != nil {
		t.Fatalf("BuildColumns: %v", err)
	}
	return c
}

// eventsEqual compares two events field-for-field, treating nil and
// empty payload slices as equal (aliasing arenas never yields nil-vs-
// empty differences that matter to consumers).
func eventsEqual(a, b *Event) bool {
	if a.Op != b.Op || a.Entry != b.Entry || a.Exit != b.Exit ||
		a.Peer != b.Peer || a.Tag != b.Tag || a.Root != b.Root ||
		a.Req != b.Req || a.Comm != b.Comm || a.Bytes != b.Bytes {
		return false
	}
	if len(a.Reqs) != len(b.Reqs) || len(a.SendBytes) != len(b.SendBytes) {
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

func requireSameEvents(t *testing.T, want *Trace, got Source) {
	t.Helper()
	var e Event
	for r := range want.Ranks {
		if got.RankLen(r) != len(want.Ranks[r]) {
			t.Fatalf("rank %d: RankLen = %d, want %d", r, got.RankLen(r), len(want.Ranks[r]))
		}
		for i := range want.Ranks[r] {
			got.EventAt(r, i, &e)
			if !eventsEqual(&e, &want.Ranks[r][i]) {
				t.Fatalf("rank %d event %d: got %+v, want %+v", r, i, e, want.Ranks[r][i])
			}
		}
	}
}

func TestColumnsMatchBuilderTrace(t *testing.T) {
	tr := richTrace(t)
	cols := richColumns(t)
	if cols.NumEvents() != tr.NumEvents() {
		t.Fatalf("NumEvents = %d, want %d", cols.NumEvents(), tr.NumEvents())
	}
	requireSameEvents(t, tr, cols)
	if !commTablesEqual(&tr.Comms, &cols.Comms) {
		t.Fatal("comm tables differ")
	}
	if cols.MeasuredTotal() != tr.MeasuredTotal() {
		t.Errorf("MeasuredTotal = %v, want %v", cols.MeasuredTotal(), tr.MeasuredTotal())
	}
	if cols.MeasuredComm() != tr.MeasuredComm() {
		t.Errorf("MeasuredComm = %v, want %v", cols.MeasuredComm(), tr.MeasuredComm())
	}
	if cols.CommFraction() != tr.CommFraction() {
		t.Errorf("CommFraction = %v, want %v", cols.CommFraction(), tr.CommFraction())
	}
}

func TestFromTraceMaterializeRoundTrip(t *testing.T) {
	// randomTrace hand-builds AoS events without the Builder, so this
	// checks conversion independent of the build path.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		cols := FromTrace(tr)
		requireSameEvents(t, tr, cols)
		back := cols.Materialize()
		if !reflect.DeepEqual(tr.Meta, back.Meta) || !commTablesEqual(&tr.Comms, &back.Comms) {
			return false
		}
		for r := range tr.Ranks {
			for i := range tr.Ranks[r] {
				if !eventsEqual(&tr.Ranks[r][i], &back.Ranks[r][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorWalksRank(t *testing.T) {
	tr := richTrace(t)
	for _, src := range []Source{tr, FromTrace(tr)} {
		for r := range tr.Ranks {
			cur := RankCursor(src, r)
			if cur.Len() != len(tr.Ranks[r]) {
				t.Fatalf("rank %d: Len = %d, want %d", r, cur.Len(), len(tr.Ranks[r]))
			}
			if cur.Index() != -1 {
				t.Fatalf("fresh cursor Index = %d, want -1", cur.Index())
			}
			var e Event
			i := 0
			for cur.Next(&e) {
				if !eventsEqual(&e, &tr.Ranks[r][i]) {
					t.Fatalf("rank %d event %d mismatch: %+v vs %+v", r, i, e, tr.Ranks[r][i])
				}
				if cur.Index() != i || cur.Rank() != r {
					t.Fatalf("cursor position (%d,%d), want (%d,%d)", cur.Rank(), cur.Index(), r, i)
				}
				i++
			}
			if i != len(tr.Ranks[r]) {
				t.Fatalf("rank %d: cursor yielded %d events, want %d", r, i, len(tr.Ranks[r]))
			}
			cur.Reset()
			if cur.Next(&e); !eventsEqual(&e, &tr.Ranks[r][0]) {
				t.Fatalf("rank %d: Reset did not rewind", r)
			}
		}
	}
}

func TestSetEventTimes(t *testing.T) {
	for _, src := range []Source{richTrace(t), richColumns(t)} {
		src.SetEventTimes(1, 0, 777, 888)
		var e Event
		src.EventAt(1, 0, &e)
		if e.Entry != 777 || e.Exit != 888 {
			t.Errorf("%T: SetEventTimes gave [%v,%v], want [777,888]", src, e.Entry, e.Exit)
		}
	}
}

func TestColumnsValidate(t *testing.T) {
	cols := richColumns(t)
	if err := cols.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Corrupt one peer and confirm validation still bites on columns.
	for i, op := range cols.ranks[0].op {
		if op.IsP2P() {
			cols.ranks[0].peer[i] = 99
			break
		}
	}
	if err := cols.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range peer")
	}
}

func TestFootprintColumnsSmaller(t *testing.T) {
	tr := richTrace(t)
	cols := FromTrace(tr)
	aos, soa := aosFootprintBytes(tr), cols.FootprintBytes()
	if aos <= 0 || soa <= 0 {
		t.Fatalf("footprints must be positive: aos=%d soa=%d", aos, soa)
	}
	if soa >= aos {
		t.Errorf("columnar footprint %d not smaller than AoS %d", soa, aos)
	}
}

// aosFootprintBytes estimates the resident heap bytes of the
// array-of-structs representation of t: the Event rows plus the
// per-event side slices.
func aosFootprintBytes(t *Trace) int64 {
	var b int64
	for _, evs := range t.Ranks {
		b += int64(cap(evs)) * int64(unsafe.Sizeof(Event{}))
		for i := range evs {
			b += int64(cap(evs[i].Reqs)) * 4
			b += int64(cap(evs[i].SendBytes)) * 8
		}
	}
	return b
}

func TestWindowedBuilderChunks(t *testing.T) {
	full := richTrace(t)
	for lo := 0; lo < 4; lo += 2 {
		b := NewBuilderWindow(full.Meta, lo, lo+2)
		richProgram(b)
		chunk := b.BuildChunk()
		var e Event
		for r := 0; r < 4; r++ {
			if r < lo || r >= lo+2 {
				if chunk.RankLen(r) != 0 {
					t.Fatalf("window [%d,%d): rank %d has %d events, want 0", lo, lo+2, r, chunk.RankLen(r))
				}
				continue
			}
			if chunk.RankLen(r) != len(full.Ranks[r]) {
				t.Fatalf("window [%d,%d): rank %d has %d events, want %d", lo, lo+2, r, chunk.RankLen(r), len(full.Ranks[r]))
			}
			for i := range full.Ranks[r] {
				chunk.EventAt(r, i, &e)
				if !eventsEqual(&e, &full.Ranks[r][i]) {
					t.Fatalf("window [%d,%d): rank %d event %d differs from full build", lo, lo+2, r, i)
				}
			}
		}
	}
}

func TestWindowedBuilderRejectsFullBuild(t *testing.T) {
	b := NewBuilderWindow(Meta{App: "w", NumRanks: 4}, 0, 2)
	richProgram(b)
	if _, err := b.Build(); err == nil {
		t.Error("Build on windowed builder must fail")
	}
	if _, err := b.BuildColumns(); err == nil {
		t.Error("BuildColumns on windowed builder must fail")
	}
}

func TestColumnarCodecRoundTrip(t *testing.T) {
	cols := richColumns(t)
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, cols); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	got, err := ReadColumns(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadColumns: %v", err)
	}
	requireSameEvents(t, cols.Materialize(), got)
	if !reflect.DeepEqual(got.Meta, cols.Meta) || !commTablesEqual(&got.Comms, &cols.Comms) {
		t.Fatal("header round trip differs")
	}
	// A second encode of the decoded columns reproduces the file byte
	// for byte: the layout is a pure function of the trace.
	var again bytes.Buffer
	if err := WriteColumnsV3(&again, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("re-encoding the decoded trace changed its bytes")
	}
}

func TestColumnarCodecRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, FromTrace(tr)); err != nil {
			t.Fatalf("WriteColumnsV3: %v", err)
		}
		c, err := ReadColumns(&buf)
		if err != nil {
			t.Fatalf("ReadColumns: %v", err)
		}
		got := c.Materialize()
		if !reflect.DeepEqual(tr.Meta, got.Meta) || !commTablesEqual(&tr.Comms, &got.Comms) {
			return false
		}
		for r := range tr.Ranks {
			if len(got.Ranks[r]) != len(tr.Ranks[r]) {
				return false
			}
			for i := range tr.Ranks[r] {
				if !eventsEqual(&tr.Ranks[r][i], &got.Ranks[r][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadColumnsRejectsGarbage(t *testing.T) {
	cols := richColumns(t)
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, cols); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	good := buf.Bytes()

	// Every truncation of a valid stream must fail cleanly.
	for cut := 0; cut < len(good)-1; cut += 7 {
		if _, err := ReadColumns(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("ReadColumns accepted truncation at %d", cut)
		}
	}
	// Single-byte corruptions must never panic (may or may not error).
	for i := len(binaryMagic); i < len(good); i += 3 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0xff
		_, _ = ReadColumns(bytes.NewReader(bad))
	}
}
