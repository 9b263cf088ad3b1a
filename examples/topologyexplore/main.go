// Topologyexplore: use MFACT's signature capability — predicting many
// network configurations from a single trace replay — to answer what-if
// questions ("would a 4× faster network help this app?"), and compare
// machines by simulating the same workload on each.
package main

import (
	"fmt"
	"log"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/mpisim"
	"hpctradeoff/internal/simnet"
	"hpctradeoff/internal/workload"
)

func main() {
	p := workload.Params{App: "CG", Class: "B", Ranks: 64, Machine: "cielito", Seed: 11}
	tr, err := workload.MaterializeColumns(p)
	if err != nil {
		log.Fatal(err)
	}
	mach, err := machine.New(p.Machine, p.Ranks, 0)
	if err != nil {
		log.Fatal(err)
	}

	// One replay, a whole design space: bandwidth and latency scales,
	// plus compute-speed what-ifs (the "10× network, 100× compute"
	// exploration the MFACT paper demonstrates).
	configs := []mfact.NetConfig{
		mfact.Baseline,
		{BWScale: 0.5, LatScale: 1, CompScale: 1},
		{BWScale: 2, LatScale: 1, CompScale: 1},
		{BWScale: 4, LatScale: 1, CompScale: 1},
		{BWScale: 10, LatScale: 1, CompScale: 1},
		{BWScale: 1, LatScale: 0.5, CompScale: 1},
		{BWScale: 1, LatScale: 0.1, CompScale: 1},
		{BWScale: 10, LatScale: 0.1, CompScale: 1},
		{BWScale: 1, LatScale: 1, CompScale: 0.1},
		{BWScale: 10, LatScale: 0.1, CompScale: 0.1},
	}
	res, err := mfact.ModelSource(tr, mach, configs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what-if exploration for %s on %s (one replay, %d configs):\n\n",
		tr.Meta.ID(), mach.Name, len(configs))
	fmt.Printf("  %-28s %-14s %s\n", "configuration", "total", "speedup")
	base := res.Totals[0]
	for k, c := range res.Configs {
		label := fmt.Sprintf("bw×%-4g lat×%-4g comp×%-4g", c.BWScale, c.LatScale, c.CompScale)
		fmt.Printf("  %-28s %-14v %.2f×\n", label, res.Totals[k], float64(base)/float64(res.Totals[k]))
	}
	fmt.Printf("\nclassification: %v — a faster network alone buys %.2f×;\n",
		res.Class, float64(base)/float64(res.Totals[4]))
	fmt.Printf("the 100× compute + 10× network future machine buys %.2f×\n\n",
		float64(base)/float64(res.Totals[len(configs)-1]))

	// Cross-machine comparison with detailed simulation: the same
	// workload regenerated for each system's topology and parameters.
	fmt.Println("cross-machine packet-flow simulation of the same workload:")
	for _, name := range append(machine.Names(), "fattree") {
		q := p
		q.Machine = name
		t2, err := workload.GenerateColumns(q) // structure only; timestamps irrelevant here
		if err != nil {
			log.Fatal(err)
		}
		m2, err := machine.New(name, q.Ranks, 0)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := mpisim.ReplaySource(t2, simnet.PacketFlow, m2, simnet.Config{}, mpisim.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %-28s predicted total %v\n", name, m2.Topo.Name(), sim.Total)
	}
}
