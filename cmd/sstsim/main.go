// Command sstsim replays an MPI trace on a discrete-event network
// simulation at packet, flow, or packet-flow granularity (the
// SST/Macro-analog side of the study).
//
// Usage:
//
//	sstsim -model packetflow trace.htrc
//	sstsim -model packet -app FT -ranks 64
//	sstsim -schemes mfact,packetflow -app FT -ranks 64
//	                                 # compare registry schemes on one trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/scheme"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/trace"
	"hpctradeoff/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sstsim:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "packetflow", "network model: packet, flow, or packetflow")
	packetBytes := flag.Int64("packet", 0, "packet size in bytes (0 = model default)")
	app := flag.String("app", "", "generate a synthetic trace for this app")
	class := flag.String("class", "B", "problem class for -app")
	ranks := flag.Int("ranks", 64, "rank count for -app")
	machName := flag.String("machine", "edison", "target machine")
	seed := flag.Int64("seed", 1, "seed for -app")
	schemes := flag.String("schemes", "", "run these registered schemes over the trace and compare "+
		"(comma-separated; available: "+strings.Join(scheme.Names(), ",")+"; overrides -model)")
	flag.Parse()

	tr, closeTrace, err := loadOrGenerate(*app, *class, *ranks, *machName, *seed, flag.Arg(0))
	if err != nil {
		return err
	}
	defer closeTrace()
	mach, err := machine.New(tr.Meta.Machine, tr.Meta.NumRanks, tr.Meta.RanksPerNode)
	if err != nil {
		return err
	}

	if *schemes != "" {
		return runSchemes(tr, mach, *schemes)
	}

	start := time.Now()
	res, err := mpisim.ReplaySource(tr, simnet.Model(*model), mach, simnet.Config{PacketBytes: *packetBytes}, mpisim.Options{})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("trace        %s (%d ranks, %d events)\n", tr.Meta.ID(), tr.Meta.NumRanks, tr.NumEvents())
	fmt.Printf("machine      %s on %s\n", mach.Name, mach.Topo.Name())
	fmt.Printf("model        %s\n", res.Model)
	fmt.Printf("simulated in %v (%d DES events)\n", wall.Round(time.Millisecond), res.Events)
	fmt.Printf("\nestimated total time  %v\n", res.Total)
	fmt.Printf("estimated comm time   %v\n", res.Comm)
	if m := tr.MeasuredTotal(); m > 0 {
		fmt.Printf("measured total time   %v (prediction/measured = %.3f)\n",
			m, float64(res.Total)/float64(m))
	}
	s := res.Net
	fmt.Printf("\nnetwork: %d messages, %d packets, %d flow updates, %.1f MB injected\n",
		s.Messages, s.Packets, s.FlowUpdates, float64(s.BytesSent)/1e6)
	return nil
}

// runSchemes replays the trace through each selected registry scheme
// and prints a side-by-side comparison (the paper's Table II shape for
// a single trace).
func runSchemes(tr *trace.Columns, mach *machine.Config, list string) error {
	ss, err := scheme.Resolve(scheme.ParseList(list))
	if err != nil {
		return err
	}
	fmt.Printf("trace   %s (%d ranks, %d events)\n", tr.Meta.ID(), tr.Meta.NumRanks, tr.NumEvents())
	fmt.Printf("machine %s on %s\n\n", mach.Name, mach.Topo.Name())
	fmt.Printf("%-12s %-11s %-14s %-14s %-12s %s\n", "scheme", "kind", "total", "comm", "events", "wall")
	for _, s := range ss {
		out, err := s.Run(tr, mach, scheme.Options{})
		if err != nil {
			fmt.Printf("%-12s %-11s failed: %v\n", s.Name(), s.Kind(), err)
			continue
		}
		fmt.Printf("%-12s %-11s %-14v %-14v %-12d %v\n",
			out.Scheme, out.Kind, out.Total, out.Comm, out.Events, out.Wall.Round(time.Microsecond))
	}
	return nil
}

// loadOrGenerate materializes a synthetic trace for -app, or opens the
// trace file at path the way campaigns do: mapped, then validated. The
// returned close function releases the mapping.
func loadOrGenerate(app, class string, ranks int, machName string, seed int64, path string) (*trace.Columns, func(), error) {
	if app != "" {
		c, err := workload.MaterializeColumns(workload.Params{
			App: app, Class: class, Ranks: ranks, Machine: machName, Seed: seed,
		})
		return c, func() {}, err
	}
	if path == "" {
		return nil, nil, fmt.Errorf("need a trace file argument or -app")
	}
	m, err := trace.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Validate(); err != nil {
		m.Close()
		return nil, nil, err
	}
	return m.Columns, func() { m.Close() }, nil
}
