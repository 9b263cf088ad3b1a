package mfact_test

import (
	"fmt"

	"hpctradeoff/internal/machine"
	"hpctradeoff/internal/mfact"
	"hpctradeoff/internal/simtime"
	"hpctradeoff/internal/trace"
)

// ExampleModelSource models a tiny two-rank program on Edison and reads the
// prediction for a what-if network with half the bandwidth.
func ExampleModelSource() {
	b := trace.NewBuilder(trace.Meta{App: "example", NumRanks: 2})
	b.Compute(0, 10*simtime.Millisecond)
	b.Compute(1, 10*simtime.Millisecond)
	b.Send(0, 1, 0, 1<<20, trace.CommWorld)
	b.Recv(1, 0, 0, 1<<20, trace.CommWorld)
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}

	mach, err := machine.Edison(2, 2)
	if err != nil {
		panic(err)
	}
	res, err := mfact.ModelSource(tr, mach, []mfact.NetConfig{
		mfact.Baseline,
		{BWScale: 0.5, LatScale: 1, CompScale: 1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("baseline:", res.Total())
	fmt.Println("half bandwidth:", res.Totals[1])
	fmt.Println("class:", res.Class)
	// Output:
	// baseline: 10.35ms
	// half bandwidth: 10.7ms
	// class: computation-bound
}
