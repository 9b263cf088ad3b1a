package trace

import (
	"fmt"
	"io"
	"os"
)

// Mapped is a trace opened by OpenMapped: a *Columns plus the backing
// it aliases. On a zero-copy-capable platform (little-endian, working
// mmap) the columns point straight into the private file mapping —
// opening allocates nothing proportional to the trace, and the
// resident cost is shared, evictable page cache. On any other platform
// Columns is an ordinary heap decode of the same file image and
// Mapped merely remembers that the fast path was unavailable.
//
// Close releases the mapping; the Columns must not be used afterwards
// when ZeroCopy reports true.
type Mapped struct {
	*Columns

	data   []byte
	mapped bool // data is an mmap region (vs a heap buffer)
	zero   bool // columns alias data (no decode happened)
}

// ZeroCopy reports whether the columns alias the file mapping directly
// (true only on a little-endian host with mmap).
func (m *Mapped) ZeroCopy() bool { return m.zero }

// Image returns the raw file image backing the trace: the mmap region,
// or the heap buffer it was decoded from when mmap is unavailable. The
// bytes are read-only as far as the caller is concerned: writing to a
// MAP_PRIVATE region would silently diverge from the file. It exists so
// integrity layers (the trace cache) can checksum exactly the bytes
// that were opened, without a second read of the file.
func (m *Mapped) Image() []byte { return m.data }

// MappedBytes returns the size of the backing image the columns alias,
// or 0 when the trace was decoded onto the heap.
func (m *Mapped) MappedBytes() int64 {
	if !m.zero {
		return 0
	}
	return int64(len(m.data))
}

// Close unmaps the file image. It is safe to call on a heap-decoded
// Mapped (a no-op beyond dropping the buffer) and safe to call twice.
func (m *Mapped) Close() error {
	data, mapped := m.data, m.mapped
	m.data, m.mapped, m.zero = nil, false, false
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// VersionV3 is the codec version number, exported so cache layers can
// record which codec an entry was written with and invalidate entries
// when the format advances.
const VersionV3 = binaryVersionV3

// OpenMapped opens the trace file at path for reading with the cheapest
// access path the platform allows:
//
//   - on a little-endian host with mmap the file maps in privately and
//     the columns alias the mapping — zero decode, zero copy, resident
//     cost shared with the page cache;
//   - elsewhere (big-endian host, no mmap, unaligned buffer) the file is
//     read and copy-decoded through the same validating parser, so
//     acceptance is identical.
//
// A file of an older codec version is rejected with ErrBadFormat. The
// returned Mapped's Columns implements Source like any other trace;
// SetEventTimes on a zero-copy trace writes copy-on-write pages that
// never reach the file. Callers must Close it when done.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}

	if size := st.Size(); mmapSupported && v3LittleEndian && size > 0 {
		data, err := mmapFile(f, size)
		if err == nil {
			c, perr := parseV3(data, v3Aliasable(data))
			if perr != nil {
				munmapFile(data)
				return nil, fmt.Errorf("trace: %s: %w", path, perr)
			}
			return &Mapped{Columns: c, data: data, mapped: true, zero: true}, nil
		}
		// fall through: an mmap failure (exotic filesystem, resource
		// limits) degrades to the read path, never to an error.
	}

	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	alias := v3Aliasable(data)
	c, perr := parseV3(data, alias)
	if perr != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, perr)
	}
	return &Mapped{Columns: c, data: data, zero: alias}, nil
}
