// Quickstart: generate a synthetic MPI trace, model it with MFACT, and
// simulate it with the packet-flow network model — the fast-vs-accurate
// comparison at the heart of the study, on one trace.
package main

import (
	"fmt"
	"log"
	"time"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/workload"
)

func main() {
	// 1. Materialize a trace: the LULESH mini-app on 64 ranks of the
	// Edison dragonfly, with ground-truth "measured" timestamps stamped
	// by the detailed contention simulator plus system noise.
	params := workload.Params{
		App:     "LULESH",
		Class:   "A",
		Ranks:   64,
		Machine: "edison",
		Seed:    42,
	}
	tr, err := workload.MaterializeColumns(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace %s: %d events, measured %v (%.0f%% communication)\n\n",
		tr.Meta.ID(), tr.NumEvents(), tr.MeasuredTotal(), 100*tr.CommFraction())

	mach, err := machine.New(params.Machine, params.Ranks, 0)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Model with MFACT: one logical-clock replay predicts the
	// application time on a whole sweep of network configurations and
	// classifies the application.
	start := time.Now()
	model, err := mfact.ModelSource(tr, mach, nil)
	if err != nil {
		log.Fatal(err)
	}
	modelWall := time.Since(start)
	fmt.Printf("MFACT modeling   %12v wall  → predicted total %v (%s)\n",
		modelWall.Round(time.Microsecond), model.Total(), model.Class)

	// 3. Simulate with the packet-flow model: a full discrete-event
	// network simulation that observes contention.
	start = time.Now()
	sim, err := mpisim.ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	simWall := time.Since(start)
	fmt.Printf("packet-flow sim  %12v wall  → predicted total %v (%d DES events)\n\n",
		simWall.Round(time.Microsecond), sim.Total, sim.Events)

	// 4. The trade-off in one line each.
	speedup := float64(simWall) / float64(modelWall)
	diff := 100 * (float64(sim.Total)/float64(model.Total()) - 1)
	fmt.Printf("modeling was %.0f× faster; simulation's answer differs by %+.2f%%\n", speedup, diff)
	fmt.Printf("MFACT's recommendation: needs detailed simulation = %v\n", model.CommSensitive())
}
