package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets: the decoder must never panic or hang on arbitrary
// input, and anything it accepts must either validate or fail
// validation gracefully. The seed corpus (valid encodings plus
// mutations) runs as regression tests under plain `go test`; use
// `go test -fuzz=FuzzRead ./internal/trace` to explore further.

func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for s := int64(1); s <= 3; s++ {
		tr := randomTrace(rand.New(rand.NewSource(s)))
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, FromTrace(tr)); err == nil {
			seeds = append(seeds, buf.Bytes())
		}
	}
	seeds = append(seeds, []byte("HTRC"), []byte("HTRC\x01"), []byte{}, []byte("garbage"))
	return seeds
}

// FuzzRead drives the read-then-validate path every consumer of a
// trace file takes: whatever ReadColumns accepts must be walkable with
// cursors, and Validate may reject it but must not panic.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadColumns(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = SourceNumEvents(c)
		_ = SourceMeasuredTotal(c)
		_ = c.Validate()
	})
}

// codecSeeds builds the FuzzTraceCodec seed set deterministically: a
// valid encoding of a program exercising every op family, an empty
// trace, and precise corruptions — a fixed header cut short, a body
// cut short, a header whose rank count disagrees with the meta, a
// misaligned extent, an extent escaping the file, and an extent whose
// byte length wraps uint64. The same bytes are committed under
// testdata/fuzz/FuzzTraceCodec (TestWriteFuzzCorpus regenerates them)
// so they run under plain `go test`.
//
// The committed corpus also holds five streams in the retired v1 and
// v2 formats (seed-valid-v1, seed-valid-v2, seed-bad-length-prefix,
// seed-truncated-block, seed-rank-count-mismatch), written by the last
// encoders of those versions. No encoder remains to regenerate them;
// they stay as real old files that both decode modes must reject.
func codecSeeds() map[string][]byte {
	build := func(meta Meta) *Columns {
		b := NewBuilder(meta)
		richProgram(b)
		c, err := b.BuildColumns()
		if err != nil {
			panic(err)
		}
		return c
	}
	encode := func(c *Columns) []byte {
		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, c); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	meta := Meta{App: "fuzzseed", Class: "S", Machine: "m", NumRanks: 4, RanksPerNode: 2, Seed: 7}
	good := encode(build(meta))
	seeds := map[string][]byte{"valid-v3": good}

	empty, err := NewBuilder(Meta{App: "empty", NumRanks: 2}).BuildColumns()
	if err != nil {
		panic(err)
	}
	seeds["empty-trace"] = encode(empty)

	seeds["v3-truncated-header"] = append([]byte{}, good[:v3HeaderSize-17]...)
	seeds["v3-truncated-body"] = append([]byte{}, good[:len(good)*2/3]...)

	// The header's rank count comes from the rank columns, the meta's
	// from Meta.NumRanks; bumping the meta after the build yields a
	// file whose two counts disagree.
	cm := build(meta)
	cm.Meta.NumRanks = 6
	seeds["v3-rank-count-mismatch"] = encode(cm)

	extOff := binary.LittleEndian.Uint64(good[32:40])
	mut := func(edit func(b []byte)) []byte {
		b := append([]byte{}, good...)
		edit(b)
		return b
	}
	seeds["v3-misaligned-extent"] = mut(func(b []byte) {
		off := binary.LittleEndian.Uint64(b[extOff+24:])
		binary.LittleEndian.PutUint64(b[extOff+24:], off+4)
	})
	seeds["v3-extent-overflow"] = mut(func(b []byte) {
		binary.LittleEndian.PutUint64(b[extOff+24+8:], uint64(len(b))-4)
	})
	seeds["v3-extent-count-wrap"] = mut(func(b []byte) {
		// reqArena length of 2^62 makes count × 4 wrap around uint64;
		// only the explicit division check catches it.
		binary.LittleEndian.PutUint64(b[extOff+8:], 1<<62)
	})
	return seeds
}

// FuzzTraceCodec holds the decoder's two modes together: on any input,
// ReadColumns (which aliases its buffer when it can) and the
// copy-decoding parser must agree on acceptance and on the events, and
// anything accepted must survive an encode → decode cycle losslessly.
func FuzzTraceCodec(f *testing.F) {
	for _, s := range codecSeeds() {
		f.Add(s)
	}
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	// Retired versions and a stream that ends right after its version
	// byte: rejected before any size check.
	f.Add(oldVersionImage(1))
	f.Add(oldVersionImage(2))
	f.Add([]byte("HTRC\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadColumns(bytes.NewReader(data))
		cCopy, copyErr := parseV3(data, false)
		if (err == nil) != (copyErr == nil) {
			t.Fatalf("decode modes disagree: ReadColumns err %v, copy-mode err %v", err, copyErr)
		}
		if err != nil {
			return
		}
		want := c.Materialize()
		if cCopy.Meta != c.Meta || !commTablesEqual(&cCopy.Comms, &c.Comms) {
			t.Fatal("meta or comm tables differ between decode modes")
		}
		requireSameEvents(t, want, cCopy)

		var buf bytes.Buffer
		if err := WriteColumnsV3(&buf, c); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		c2, err := ReadColumns(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if c2.Meta != c.Meta || !commTablesEqual(&c2.Comms, &c.Comms) {
			t.Fatal("round trip changed meta or comms")
		}
		requireSameEvents(t, want, c2)
	})
}

// TestWriteFuzzCorpus regenerates the committed FuzzTraceCodec seed
// corpus (run with WRITE_CORPUS=1 after changing the codec or seeds).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzTraceCodec")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range codecSeeds() {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzReadDUMPIASCII(f *testing.F) {
	f.Add(dumpiRank0)
	f.Add(dumpiRank1)
	f.Add("MPI_Send entering at walltime 0.1.\n  int dest=0\nMPI_Send returning at walltime 0.2.\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadDUMPIASCII(Meta{App: "fuzz", NumRanks: 1},
			[]io.Reader{strings.NewReader(data)})
		if err != nil {
			return
		}
		_ = tr.NumEvents()
	})
}
