package sim

import (
	"math/bits"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
)

// The gate-by-gate reference simulator. It applies every gate of a circuit
// with its own kernel and every fault's Paulis as gates, and shares no
// fusion, compaction or frame code with Program and Executor, so the oracle
// tests compare those against it.

var matZ = [2][2]complex128{
	{1, 0},
	{0, -1},
}

// ApplyCZ applies a controlled-Z between a and b, visiting only the
// 2^{n-2} amplitudes with both bits set.
func (s *State) ApplyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	lo, hi := sortBits(ab, bb)
	n := len(s.Amp) >> 2
	for k := 0; k < n; k++ {
		i := expand2(k, lo, hi) | ab | bb
		s.Amp[i] = -s.Amp[i]
	}
}

// ApplyZZ applies exp(-i θ/2 Z⊗Z) between a and b: amplitudes where the two
// bits agree pick up e^{-iθ/2}, disagreeing ones e^{+iθ/2}.
func (s *State) ApplyZZ(a, b int, theta float64) {
	same := cmplx.Exp(complex(0, -theta/2))
	diff := cmplx.Exp(complex(0, +theta/2))
	ab, bb := 1<<uint(a), 1<<uint(b)
	for i := range s.Amp {
		if (i&ab != 0) == (i&bb != 0) {
			s.Amp[i] *= same
		} else {
			s.Amp[i] *= diff
		}
	}
}

// ApplyGate dispatches a single IR gate. Measure and Barrier gates are
// no-ops at the state level (sampling is performed separately).
func (s *State) ApplyGate(g circuit.Gate) {
	switch g.Kind {
	case circuit.H:
		s.Apply1Q(g.Q0, matH)
	case circuit.X:
		s.Apply1Q(g.Q0, matX)
	case circuit.Y:
		s.Apply1Q(g.Q0, matY)
	case circuit.Z:
		s.Apply1Q(g.Q0, matZ)
	case circuit.RX:
		s.Apply1Q(g.Q0, MatRX(g.Params[0]))
	case circuit.RY:
		s.Apply1Q(g.Q0, MatRY(g.Params[0]))
	case circuit.RZ:
		s.Apply1Q(g.Q0, MatRZ(g.Params[0]))
	case circuit.U1:
		s.Apply1Q(g.Q0, MatU1(g.Params[0]))
	case circuit.U2:
		s.Apply1Q(g.Q0, MatU2(g.Params[0], g.Params[1]))
	case circuit.U3:
		s.Apply1Q(g.Q0, MatU3(g.Params[0], g.Params[1], g.Params[2]))
	case circuit.CNOT:
		s.ApplyCNOT(g.Q0, g.Q1)
	case circuit.CZ:
		s.ApplyCZ(g.Q0, g.Q1)
	case circuit.CPhase:
		s.ApplyZZ(g.Q0, g.Q1, g.Params[0])
	case circuit.Swap:
		s.ApplySwap(g.Q0, g.Q1)
	case circuit.Measure, circuit.Barrier:
		// no-op
	default:
		panic("sim: cannot simulate " + g.Kind.String())
	}
}

func applyPauliDigit(s *State, q, digit int) {
	switch digit {
	case 1:
		s.Apply1Q(q, matX)
	case 2:
		s.Apply1Q(q, matY)
	case 3:
		s.Apply1Q(q, matZ)
	}
}

// RunNoisy executes one noisy trajectory of c from |0…0⟩: every gate is
// applied ideally and followed by a probabilistic Pauli fault. The returned
// state is a single sample of the noisy process; average observables over
// many trajectories. The fault sites are drawn up front (the state
// evolution consumes no randomness, so the caller's RNG stream is consumed
// draw-for-draw as in the interleaved formulation); then every gate runs
// through ApplyGate and every drawn Pauli as a gate after it.
func RunNoisy(c *circuit.Circuit, nm *NoiseModel, rng *rand.Rand) *State {
	return runFaults(c, drawFaults(c, nm, rng, nil))
}

// runFaults runs c from |0…0⟩ gate by gate, applying each planned fault's
// Paulis as gates right after its gate.
func runFaults(c *circuit.Circuit, faults []fault) *State {
	s := NewState(c.NQubits)
	for gi, g := range c.Gates {
		s.ApplyGate(g)
		for ; len(faults) > 0 && faults[0].gate == gi; faults = faults[1:] {
			applyPauliDigit(s, faults[0].q0, faults[0].d0)
			if faults[0].q1 >= 0 {
				applyPauliDigit(s, faults[0].q1, faults[0].d1)
			}
		}
	}
	return s
}

// termFac returns the term's factor for basis index x.
func termFac(t *diagTerm, x uint64) complex128 {
	var sel int
	if t.parity {
		sel = bits.OnesCount64(x&t.mask) & 1
	} else if x&t.mask == t.mask {
		sel = 1
	}
	return t.fac[sel]
}
