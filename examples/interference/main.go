// Interference: the paper's Section II-C point made concrete — for
// scenarios that models cannot express, like inter-job interference on
// shared network links, simulation is the only option. We replay the
// same trace with and without neighbor-job background traffic: the
// simulation sees the slowdown; MFACT's prediction cannot change.
package main

import (
	"fmt"
	"log"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/workload"
)

func main() {
	p := workload.Params{App: "FT", Class: "A", Ranks: 64, Machine: "edison", Seed: 21}
	tr, err := workload.MaterializeColumns(p)
	if err != nil {
		log.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		log.Fatal(err)
	}

	model, err := mfact.ModelSource(tr, mach, nil)
	if err != nil {
		log.Fatal(err)
	}
	clean, err := mpisim.ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FT on a quiet %s:\n", mach.Name)
	fmt.Printf("  MFACT model        %v\n", model.Total())
	fmt.Printf("  packet-flow sim    %v\n\n", clean.Total)

	fmt.Println("now with neighbor jobs hammering the shared fabric:")
	fmt.Printf("  %-22s %-14s %s\n", "background load", "sim total", "slowdown vs quiet")
	for _, bg := range []mpisim.Background{
		{Sources: 4, MsgBytes: 64 << 10, Interval: 500 * simtime.Microsecond, Seed: 7},
		{Sources: 8, MsgBytes: 128 << 10, Interval: 400 * simtime.Microsecond, Seed: 7},
		{Sources: 16, MsgBytes: 256 << 10, Interval: 300 * simtime.Microsecond, Seed: 7},
	} {
		bg := bg
		res, err := mpisim.ReplaySource(tr, simnet.PacketFlow, mach, simnet.Config{}, mpisim.Options{Background: &bg})
		if err != nil {
			log.Fatal(err)
		}
		rate := float64(bg.Sources) * float64(bg.MsgBytes) / bg.Interval.Seconds() / 1e9
		fmt.Printf("  %-22s %-14v %+.1f%%\n",
			fmt.Sprintf("%.1f GB/s aggregate", rate), res.Total,
			100*(float64(res.Total)/float64(clean.Total)-1))
	}
	fmt.Printf("\nMFACT's prediction is %v under every load: the Hockney model has\n", model.Total())
	fmt.Println("no term for someone else's packets. This is the class of question")
	fmt.Println("where the paper concludes simulation is the right tool.")
}
