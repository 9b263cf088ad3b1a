// Needforsim: train the enhanced-MFACT decision model on a reduced
// suite, then use it the way a practitioner would — ask, for a new
// trace, whether cheap modeling suffices or detailed simulation is
// worth the cost.
package main

import (
	"fmt"
	"log"

	"hpctradeoff/internal/classifier"
	"hpctradeoff/internal/core"
	"hpctradeoff/internal/features"
	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/workload"
)

func main() {
	// Training data: several apps at a few scales. (The full study uses
	// the 235-trace manifest; this example keeps it quick.)
	var suite []workload.Params
	apps := []string{"EP", "CMC", "LULESH", "MiniFE", "FT", "IS", "CrystalRouter", "CG", "Nekbone", "AMG", "FillBoundary", "MG"}
	for i, app := range apps {
		for j, ranks := range []int{32, 64} {
			suite = append(suite, workload.Params{
				App: app, Class: "A", Ranks: ranks,
				Machine: []string{"cielito", "hopper", "edison"}[(i+j)%3],
				Seed:    int64(i*10 + j),
			})
		}
	}
	fmt.Printf("building training data from %d traces...\n", len(suite))
	results, err := core.RunSuite(suite, 0, nil)
	if err != nil {
		log.Fatal(err)
	}

	study, err := core.BuildPredictionStudy(results, 60, 5, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(study.RenderRates())
	fmt.Println(study.RenderTable4(5))

	// Now query the trained model for unseen traces.
	fmt.Println("\nquerying the trained model on unseen traces:")
	for _, q := range []workload.Params{
		{App: "EP", Class: "B", Ranks: 48, Machine: "edison", Seed: 999},
		{App: "IS", Class: "B", Ranks: 48, Machine: "cielito", Seed: 999},
		{App: "LULESH", Class: "B", Ranks: 48, Machine: "hopper", Seed: 999},
	} {
		tr, err := workload.MaterializeColumns(q)
		if err != nil {
			log.Fatal(err)
		}
		mach, err := machine.New(q.Machine, q.Ranks, 0)
		if err != nil {
			log.Fatal(err)
		}
		model, err := mfact.ModelSource(tr, mach, nil)
		if err != nil {
			log.Fatal(err)
		}
		x := features.ExtractSource(tr, model)
		verdict := "modeling suffices"
		if study.Model.NeedsSimulation(x) {
			verdict = "run detailed simulation"
		}
		fmt.Printf("  %-28s → %-24s (MFACT class: %v)\n", tr.Meta.ID(), verdict, model.Class)
	}

	// Show the threshold definition for reference.
	fmt.Printf("\n(\"needs simulation\" = DIFFtotal > %.0f%%, the paper's Section VI rule)\n",
		100*classifier.NeedSimThreshold)
}
