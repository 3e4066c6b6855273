// Packing-density sweep: reproduce the Fig. 12 trade-off on the
// hypothetical 36-qubit grid — packing more CPhase gates per layer shrinks
// depth and compile time up to a point, while gate count creeps up.
package main

import (
	"fmt"
	"math/rand"

	"repro/qaoac"
)

func main() {
	dev := qaoac.GridDevice(6, 6)
	rng := rand.New(rand.NewSource(99))
	g := qaoac.ErdosRenyi(36, 0.5, rng)
	prob := &qaoac.Problem{G: g, MaxCut: 1}
	params := qaoac.P1Params(0.8, 0.35)

	fmt.Printf("IC on %d-qubit grid, G(36, 0.5) instance with %d edges\n\n", dev.NQubits(), g.M())
	fmt.Printf("%12s  %8s  %8s  %8s  %12s\n", "packing", "depth", "gates", "swaps", "compile")
	for _, limit := range []int{1, 2, 4, 6, 8, 10, 12, 15, 18} {
		opts := qaoac.PresetIC.Options(rand.New(rand.NewSource(5)))
		opts.PackingLimit = limit
		res, err := qaoac.Compile(prob, params, dev, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%12d  %8d  %8d  %8d  %12s\n",
			limit, res.Depth, res.GateCount, res.SwapCount, res.Times.Total().Round(10_000))
	}
	fmt.Println("\nLow limits serialize the circuit (deep, but each layer routes")
	fmt.Println("cheaply); generous limits parallelize it at some SWAP cost.")
}
