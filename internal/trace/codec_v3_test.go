package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpctradeoff/internal/simtime"
)

func encodeV3(t *testing.T, c *Columns) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, c); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	return buf.Bytes()
}

func TestV3RoundTrip(t *testing.T) {
	cols := richColumns(t)
	v3 := encodeV3(t, cols)

	if got := V3Size(cols); got != int64(len(v3)) {
		t.Fatalf("V3Size = %d, encoded %d bytes", got, len(v3))
	}

	want := cols.Materialize()

	back, err := ReadColumns(bytes.NewReader(v3))
	if err != nil {
		t.Fatalf("ReadColumns(v3): %v", err)
	}
	requireSameEvents(t, want, back)
	if !commTablesEqual(&want.Comms, &back.Comms) {
		t.Fatal("comm tables differ after v3 round trip")
	}
	if back.Meta != want.Meta {
		t.Fatalf("meta = %+v, want %+v", back.Meta, want.Meta)
	}
}

func TestV3RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		tr := randomTrace(rng)
		cols := FromTrace(tr)
		v3 := encodeV3(t, cols)
		back, err := ReadColumns(bytes.NewReader(v3))
		if err != nil {
			t.Fatalf("iter %d: ReadColumns(v3): %v", i, err)
		}
		requireSameEvents(t, tr, back)
		if !commTablesEqual(&tr.Comms, &back.Comms) {
			t.Fatalf("iter %d: comm tables differ", i)
		}
	}
}

// TestV3AliasCopyAgree checks that the zero-copy and portable decode
// paths produce identical columns and accept/reject identical inputs.
func TestV3AliasCopyAgree(t *testing.T) {
	cols := richColumns(t)
	v3 := encodeV3(t, cols)
	want := cols.Materialize()

	aligned := make([]byte, len(v3))
	copy(aligned, v3)
	if v3LittleEndian && v3Aliasable(aligned) {
		ac, err := parseV3(aligned, true)
		if err != nil {
			t.Fatalf("parseV3(alias): %v", err)
		}
		requireSameEvents(t, want, ac)
	}
	cc, err := parseV3(v3, false)
	if err != nil {
		t.Fatalf("parseV3(copy): %v", err)
	}
	requireSameEvents(t, want, cc)

	// Both modes must reject the same corruptions.
	for name, corrupt := range v3Corruptions(t, cols) {
		buf := make([]byte, len(corrupt))
		copy(buf, corrupt)
		_, errAlias := parseV3(buf, v3Aliasable(buf))
		_, errCopy := parseV3(corrupt, false)
		if (errAlias == nil) != (errCopy == nil) {
			t.Errorf("%s: alias err=%v, copy err=%v — modes disagree", name, errAlias, errCopy)
		}
		if errCopy == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

// v3Corruptions builds a family of invalid v3 images from a valid one:
// truncated headers, misaligned extents, extents pointing past EOF, and
// header/stream size mismatches. Every one must be rejected.
func v3Corruptions(t *testing.T, cols *Columns) map[string][]byte {
	t.Helper()
	good := encodeV3(t, cols)
	metaLen := binary.LittleEndian.Uint64(good[24:32])
	extOff := binary.LittleEndian.Uint64(good[32:40])

	patch := func(mut func(b []byte)) []byte {
		b := make([]byte, len(good))
		copy(b, good)
		mut(b)
		return b
	}
	out := map[string][]byte{
		"truncated-header-8":  append([]byte(nil), good[:8]...),
		"truncated-header-47": append([]byte(nil), good[:47]...),
		"truncated-body":      append([]byte(nil), good[:len(good)-9]...),
		"trailing-garbage":    append(append([]byte(nil), good...), 0xEE),
		"file-size-lie": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[40:48], uint64(len(b))+64)
		}),
		"bad-header-size": patch(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], 128)
		}),
		"meta-out-of-bounds": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:32], uint64(len(b))*2)
		}),
		"extent-table-moved": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:40], extOff+8)
		}),
		"rank-count-overflow": patch(func(b []byte) {
			binary.LittleEndian.PutUint32(b[12:16], 1<<30)
		}),
		// Knock the first rank's op column offset off 8-byte alignment.
		"misaligned-extent": patch(func(b []byte) {
			off := binary.LittleEndian.Uint64(b[extOff+24:])
			binary.LittleEndian.PutUint64(b[extOff+24:], off+1)
		}),
		// Point the entry column past EOF.
		"extent-past-eof": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[extOff+24+8:], uint64(len(b)))
		}),
		// Event count × elem size wraps around uint64.
		"extent-count-overflow": patch(func(b []byte) {
			binary.LittleEndian.PutUint64(b[extOff:], 1<<61)
		}),
		// Waitall window reaching outside the request arena: grow the
		// first rank's auxLen bytes to huge values.
		"aux-window-overflow": patch(func(b []byte) {
			auxLenOff := binary.LittleEndian.Uint64(b[extOff+24+8*10:])
			n := binary.LittleEndian.Uint64(b[extOff:])
			for i := uint64(0); i < n; i++ {
				binary.LittleEndian.PutUint32(b[auxLenOff+4*i:], 1<<30)
			}
		}),
	}
	_ = metaLen
	return out
}

func TestV3Rejections(t *testing.T) {
	cols := richColumns(t)
	for name, bad := range v3Corruptions(t, cols) {
		if _, err := ReadColumns(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadColumns accepted corrupt v3 stream", name)
		}
	}
}

func writeV3File(t *testing.T, cols *Columns) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := WriteColumnsV3(f, cols); err != nil {
		t.Fatalf("WriteColumnsV3: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return path
}

func TestOpenMappedV3(t *testing.T) {
	cols := richColumns(t)
	want := cols.Materialize()
	path := writeV3File(t, cols)

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()

	if mmapSupported && v3LittleEndian {
		if !m.ZeroCopy() {
			t.Fatal("ZeroCopy() = false on a platform that supports it")
		}
		if m.MappedBytes() != V3Size(cols) {
			t.Fatalf("MappedBytes = %d, want %d", m.MappedBytes(), V3Size(cols))
		}
	}
	requireSameEvents(t, want, m.Columns)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate on mapped trace: %v", err)
	}
}

// TestOpenMappedSetEventTimes verifies the MAP_PRIVATE contract: writes
// through SetEventTimes are visible in the mapping but never reach the
// file, so a later open sees the original times.
func TestOpenMappedSetEventTimes(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	m.SetEventTimes(0, 0, simtime.Time(12345), simtime.Time(67890))
	var e Event
	m.EventAt(0, 0, &e)
	if e.Entry != 12345 || e.Exit != 67890 {
		t.Fatalf("SetEventTimes not visible: entry=%v exit=%v", e.Entry, e.Exit)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("re-read: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("SetEventTimes on a mapped trace modified the file")
	}

	m2, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer m2.Close()
	m2.EventAt(0, 0, &e)
	want := cols.Materialize().Ranks[0][0]
	if e.Entry != want.Entry || e.Exit != want.Exit {
		t.Fatalf("file times changed: entry=%v exit=%v, want %v/%v", e.Entry, e.Exit, want.Entry, want.Exit)
	}
}

// oldVersionImage hand-builds the start of a file in a retired codec
// version: magic, the version byte, and a few bytes of meta. Nothing
// past the version byte is ever read, so no old encoder is needed.
func oldVersionImage(version byte) []byte {
	return append([]byte(binaryMagic), version, 4, 'r', 'i', 'c', 'h', 1, 'A')
}

// TestOpenMappedRejectsOldVersions checks that version-1 and version-2
// files fail loudly through both readers: ErrBadFormat, naming the
// version found and how to regenerate the file — not a misleading
// truncation error, even for a file shorter than the v3 header.
func TestOpenMappedRejectsOldVersions(t *testing.T) {
	dir := t.TempDir()
	for _, version := range []byte{1, 2} {
		short := oldVersionImage(version)
		long := append(append([]byte(nil), short...), make([]byte, 200)...)
		for name, img := range map[string][]byte{"short": short, "long": long} {
			path := filepath.Join(dir, fmt.Sprintf("v%d-%s.htrc", version, name))
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			_, errMapped := OpenMapped(path)
			_, errStream := ReadColumns(bytes.NewReader(img))
			for reader, err := range map[string]error{"OpenMapped": errMapped, "ReadColumns": errStream} {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("v%d %s: %s err = %v, want ErrBadFormat", version, name, reader, err)
				}
				msg := err.Error()
				if !strings.Contains(msg, fmt.Sprintf("codec version %d", version)) ||
					!strings.Contains(msg, "cmd/tracegen") || !strings.Contains(msg, "cmd/dumpiconv") {
					t.Errorf("v%d %s: %s err %q does not name the version and the regenerating commands",
						version, name, reader, msg)
				}
			}
		}
	}
}

func TestMappedCloseTwice(t *testing.T) {
	cols := richColumns(t)
	path := writeV3File(t, cols)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkOpenV3 measures the cost of opening (not iterating) a v3
// file through the mmap path; BenchmarkReadColumnsV3 is the same trace
// read from a stream — the headline comparison for the zero-copy
// format.
func BenchmarkOpenV3(b *testing.B) {
	cols := benchColumns(b)
	path := filepath.Join(b.TempDir(), "bench.v3")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteColumnsV3(f, cols); err != nil {
		b.Fatal(err)
	}
	f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

func BenchmarkReadColumnsV3(b *testing.B) {
	cols := benchColumns(b)
	var buf bytes.Buffer
	if err := WriteColumnsV3(&buf, cols); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadColumns(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchColumns(b *testing.B) *Columns {
	b.Helper()
	bld := NewBuilder(Meta{App: "bench", Class: "B", Machine: "m", NumRanks: 8, RanksPerNode: 4})
	for i := 0; i < 200; i++ {
		richProgramN(bld, 8)
	}
	c, err := bld.BuildColumns()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// richProgramN is a rank-count-parameterized slice of richProgram's op
// mix, suitable for looping to build large benchmark traces.
func richProgramN(b *Builder, ranks int) {
	for r := 0; r < ranks; r++ {
		b.Compute(r, simtime.Time(10+r))
	}
	q0 := b.Isend(0, 1, 0, 1024, CommWorld)
	q1 := b.Irecv(1, 0, 0, 1024, CommWorld)
	b.Wait(0, q0)
	b.Wait(1, q1)
	for r := 0; r < ranks; r++ {
		b.Collective(r, OpAllreduce, CommWorld, 0, 64)
	}
}
