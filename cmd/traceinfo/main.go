// Command traceinfo inspects a trace file: metadata, event and
// operation counts, measured times, and the Table III feature vector.
// With -cache it instead lists a trace-cache directory: each entry's
// key, codec and workload-schema versions, size, and last use.
//
// Usage:
//
//	traceinfo trace.htrc [more.htrc ...]
//	traceinfo -cache DIR
package main

import (
	"flag"
	"fmt"
	"os"

	"hpctradeoff/internal/features"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/tracecache"
	"hpctradeoff/internal/workload"
)

func main() {
	verbose := flag.Bool("v", false, "print the full Table III feature vector")
	cacheDir := flag.String("cache", "", "list this trace-cache directory instead of reading trace files")
	flag.Parse()
	if *cacheDir != "" {
		if err := describeCache(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: %v\n", *cacheDir, err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-v] trace.htrc ... | traceinfo -cache DIR")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := describe(path, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

// describeCache lists every entry of a trace-cache directory, including
// ones a current binary would refuse to serve (stale versions, corrupt
// sidecars) — the point of the listing is seeing what is on disk, not
// what would hit.
func describeCache(dir string) error {
	c, err := tracecache.Open(dir, tracecache.Options{})
	if err != nil {
		return err
	}
	entries, err := c.List()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d entries\n", dir, len(entries))
	var total int64
	for _, e := range entries {
		if e.Err != nil {
			fmt.Printf("  %s  UNREADABLE: %v\n", e.Hash, e.Err)
			continue
		}
		stale := ""
		if e.Codec != trace.VersionV3 || e.WorkloadSchema != workload.SchemaVersion {
			stale = "  STALE (will regenerate)"
		}
		fmt.Printf("  %s  codec=v%d schema=%d  %8.2f MB  last use %s  %s%s\n",
			e.Hash, e.Codec, e.WorkloadSchema, float64(e.Bytes)/1e6,
			e.LastUse.Format("2006-01-02 15:04:05"), e.Key, stale)
		total += e.Bytes
	}
	fmt.Printf("  total %.2f MB\n", float64(total)/1e6)
	return nil
}

func describe(path string, verbose bool) error {
	m, err := trace.OpenMapped(path)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := m.Validate(); err != nil {
		return fmt.Errorf("invalid trace: %w", err)
	}
	c := m.Columns

	fmt.Printf("%s\n", path)
	fmt.Printf("  codec         v%d (zero-copy mapped: %v)\n", trace.VersionV3, m.ZeroCopy())
	fmt.Printf("  id            %s\n", c.Meta.ID())
	fmt.Printf("  ranks         %d (%d per node)\n", c.Meta.NumRanks, c.Meta.RanksPerNode)
	fmt.Printf("  machine       %s\n", c.Meta.Machine)
	fmt.Printf("  seed          %d\n", c.Meta.Seed)
	fmt.Printf("  capabilities  commSplit=%v threadMultiple=%v\n",
		c.Meta.UsesCommSplit, c.Meta.UsesThreadMultiple)
	fmt.Printf("  communicators %d\n", c.Comms.Len())
	fmt.Printf("  events        %d\n", c.NumEvents())
	fmt.Printf("  measured      total %v, comm %v (%.1f%%)\n",
		c.MeasuredTotal(), c.MeasuredComm(), 100*c.CommFraction())
	// The file maps in as-is, so its size IS the mapped resident
	// estimate (file-backed, reclaimable, shared across processes
	// mapping the same trace).
	colBytes, fileBytes := c.FootprintBytes(), trace.V3Size(c)
	fmt.Printf("  resident est  columnar heap %.2f MB, mapped %.2f MB file-backed\n",
		float64(colBytes)/1e6, float64(fileBytes)/1e6)

	counts := map[trace.Op]int{}
	var bytes int64
	var e trace.Event
	for r := 0; r < c.NumRanks(); r++ {
		for cur := c.Cursor(r); cur.Next(&e); {
			counts[e.Op]++
			nMembers := 0
			if e.Op.IsCollective() {
				nMembers = c.Comms.Size(e.Comm)
			}
			bytes += e.TotalSendBytes(nMembers)
		}
	}
	fmt.Printf("  bytes sent    %.2f MB\n", float64(bytes)/1e6)
	fmt.Printf("  operations   ")
	for op := trace.Op(0); int(op) < 32; op++ {
		if n := counts[op]; n > 0 {
			fmt.Printf(" %s=%d", op, n)
		}
	}
	fmt.Println()

	if verbose {
		fmt.Println("  features (Table III, MFACT classification omitted):")
		v := features.ExtractSource(c, nil)
		names := features.Names()
		for i, n := range names {
			fmt.Printf("    %-8s %.6g\n", n, v[i])
		}
	}
	return nil
}
