package exp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// oldStyleSampleNoisy reimplements the pre-executor noisy sampling
// semantics: one shared RNG threaded sequentially through every trajectory
// (interleaved fault draws, full re-simulation, per-sample readout flips).
// The executor intentionally switched to per-trajectory substreams, so the
// two are statistically — not byte — equivalent.
func oldStyleSampleNoisy(c *circuit.Circuit, nm *sim.NoiseModel, shots, traj int, rng *rand.Rand) []uint64 {
	out := make([]uint64, 0, shots)
	nb, extra := shots/traj, shots%traj
	for t := 0; t < traj; t++ {
		k := nb
		if t < extra {
			k++
		}
		s := sim.NewState(c.NQubits).Run(withDrawnFaults(c, nm, rng))
		for _, x := range s.Sample(rng, k) {
			out = append(out, flipReadoutBits(x, nm.Readout, rng))
		}
	}
	return out
}

// withDrawnFaults returns a copy of c with one trajectory's Pauli faults
// spliced in as gates, each right after the gate it follows. Faults are
// drawn at NoiseModel's documented rates: a one-qubit gate faults with
// probability OneQubit and draws X, Y or Z; a two-qubit gate draws once
// per CNOT it decomposes into, at its edge's rate, and a fault is one of
// the 15 non-identity Pauli pairs.
func withDrawnFaults(c *circuit.Circuit, nm *sim.NoiseModel, rng *rand.Rand) *circuit.Circuit {
	paulis := [4]func(q int) circuit.Gate{nil, circuit.NewX, circuit.NewY, circuit.NewZ}
	out := circuit.New(c.NQubits)
	for _, g := range c.Gates {
		out.Append(g)
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
		case g.Arity() == 2:
			u, v := min(g.Q0, g.Q1), max(g.Q0, g.Q1)
			e, ok := nm.TwoQubit[[2]int{u, v}]
			if !ok {
				e = nm.TwoQubitDefault
			}
			for i := 0; i < circuit.NativeCNOTCost(g.Kind); i++ {
				if rng.Float64() < e {
					k := 1 + rng.Intn(15)
					if d := k & 3; d != 0 {
						out.Append(paulis[d](g.Q0))
					}
					if d := k >> 2 & 3; d != 0 {
						out.Append(paulis[d](g.Q1))
					}
				}
			}
		default:
			if nm.OneQubit > 0 && rng.Float64() < nm.OneQubit {
				out.Append(paulis[rng.Intn(3)+1](g.Q0))
			}
		}
	}
	return out
}

func flipReadoutBits(x uint64, ro []float64, rng *rand.Rand) uint64 {
	for q, p := range ro {
		if p > 0 && rng.Float64() < p {
			x ^= 1 << uint(q)
		}
	}
	return x
}

// TestMeasureARGStatisticallyMatchesOldStyle pins the intentional RNG-stream
// change of the fault-sparse executor: on the Fig. 7 ER ARG workload, the
// mean ARG over a batch of seeds must agree between the executor path
// (MeasureARG) and the old sequential shared-RNG semantics within sampling
// noise. The seeds are fixed, so the test is deterministic.
func TestMeasureARGStatisticallyMatchesOldStyle(t *testing.T) {
	prob, res, nm := argWorkload(t)
	const shots, traj = 2048, 16
	seeds := []int64{101, 202, 303, 404, 505}

	var newSum, oldSum float64
	for _, seed := range seeds {
		arg, err := MeasureARG(prob, res, nm, shots, traj, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		newSum += arg

		rng := rand.New(rand.NewSource(seed))
		r0, err := approxRatioPhysical(prob, res, sim.NewState(res.Circuit.NQubits).Run(res.Circuit).Sample(rng, shots))
		if err != nil {
			t.Fatal(err)
		}
		rh, err := approxRatioPhysical(prob, res, oldStyleSampleNoisy(res.Circuit, nm, shots, traj, rng))
		if err != nil {
			t.Fatal(err)
		}
		oldSum += qaoa.ARG(r0, rh)
	}
	newMean := newSum / float64(len(seeds))
	oldMean := oldSum / float64(len(seeds))
	if d := math.Abs(newMean - oldMean); d > 1.5 {
		t.Fatalf("mean ARG %.3f%% (executor) vs %.3f%% (old-style) differ by %.3f points", newMean, oldMean, d)
	}
	// Both must see real noise on this calibrated workload.
	if newMean <= 0 || oldMean <= 0 {
		t.Fatalf("degenerate ARGs: executor %.3f%%, old-style %.3f%%", newMean, oldMean)
	}
}
