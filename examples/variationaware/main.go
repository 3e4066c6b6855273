// Variation-aware compilation: compare IC and VIC on ibmq_16_melbourne
// with its published calibration snapshot. VIC routes around unreliable
// couplers, raising the compiled circuit's success probability and lowering
// the approximation-ratio gap under noise.
package main

import (
	"fmt"
	"math/rand"

	"repro/qaoac"
)

func main() {
	dev := qaoac.Melbourne15()
	fmt.Printf("device %s: %d qubits, CNOT error range on couplers:\n", dev.Name, dev.NQubits())
	lo, hi := 1.0, 0.0
	for _, e := range dev.Coupling.Edges() {
		if r := dev.CNOTError(e.U, e.V); r < lo {
			lo = r
		} else if r > hi {
			hi = r
		}
	}
	fmt.Printf("  best %.4f, worst %.4f — a %.1fx spread the compiler can exploit\n\n", lo, hi, hi/lo)

	nm := qaoac.NoiseFromDevice(dev)
	const shots, traj = 8192, 32

	fmt.Printf("%-6s %-6s  %10s  %10s  %8s  %8s\n", "inst", "method", "succ prob", "gates", "r0", "ARG %")
	for inst := 0; inst < 3; inst++ {
		rng := rand.New(rand.NewSource(int64(inst) * 101))
		g := qaoac.ErdosRenyi(12, 0.4, rng)
		prob, err := qaoac.NewMaxCut(g)
		if err != nil {
			panic(err)
		}
		gamma, beta, _, err := qaoac.OptimizeP1(g)
		if err != nil {
			panic(err)
		}
		for _, preset := range []qaoac.Preset{qaoac.PresetIC, qaoac.PresetVIC} {
			res, err := qaoac.Compile(prob, qaoac.P1Params(gamma, beta), dev,
				preset.Options(rand.New(rand.NewSource(int64(inst)))))
			if err != nil {
				panic(err)
			}
			sampleRNG := rand.New(rand.NewSource(int64(inst)*7 + 3))
			// One executor for both: noise first, so its one ideal run
			// serves the noisy trajectories and then the noiseless shots.
			ex := qaoac.NewExecutor(res.Circuit)
			rh := ratio(prob, res, ex.SampleNoisy(nm, shots, traj, sampleRNG))
			r0 := ratio(prob, res, ex.SampleIdeal(sampleRNG, shots))
			fmt.Printf("%-6d %-6s  %10.6f  %10d  %8.4f  %8.2f\n",
				inst, preset, dev.SuccessProbability(res.Native), res.GateCount, r0, qaoac.ARG(r0, rh))
		}
	}
	fmt.Println("\nVIC trades a few extra SWAP hops for reliable links; its higher")
	fmt.Println("success probability shows up as a smaller approximation-ratio gap.")
}

func ratio(prob *qaoac.Problem, res *qaoac.CompileResult, physical []uint64) float64 {
	logical := make([]uint64, len(physical))
	for i, y := range physical {
		logical[i] = res.ExtractLogical(y)
	}
	r, err := qaoac.ApproximationRatio(prob, logical)
	if err != nil {
		panic(err)
	}
	return r
}
