// Quickstart: compile a QAOA-MaxCut circuit for ibmq_20_tokyo with each of
// the paper's methodologies and compare the compiled-circuit quality.
package main

import (
	"fmt"
	"math/rand"

	"repro/qaoac"
)

func main() {
	// A 16-node 3-regular MaxCut problem — the sparse workload where
	// intelligent mapping pays off most.
	rng := rand.New(rand.NewSource(42))
	g := qaoac.MustRandomRegular(16, 3, rng)
	prob := &qaoac.Problem{G: g, MaxCut: 1} // optimum not needed for compilation

	dev := qaoac.Tokyo20()
	params := qaoac.P1Params(0.8, 0.35)

	fmt.Printf("compiling %d-node %d-edge QAOA-MaxCut for %s\n\n", g.N(), g.M(), dev.Name)
	fmt.Printf("%-8s  %8s  %8s  %8s  %12s\n", "method", "depth", "gates", "swaps", "compile")
	for _, preset := range []qaoac.Preset{
		qaoac.PresetNaive, qaoac.PresetGreedyV, qaoac.PresetQAIM,
		qaoac.PresetIP, qaoac.PresetIC,
	} {
		res, err := qaoac.Compile(prob, params, dev, preset.Options(rand.New(rand.NewSource(7))))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s  %8d  %8d  %8d  %12s\n",
			preset, res.Depth, res.GateCount, res.SwapCount, res.Times.Total().Round(10_000))
	}

	fmt.Println("\nIC typically wins on both depth and gate count: commuting CPhase")
	fmt.Println("gates are re-ordered so each routed layer needs fewer SWAPs.")
}
