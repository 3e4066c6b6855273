package sim

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/device"
)

// NoiseModel is a stochastic Pauli error model: after each gate a random
// Pauli fault is injected with the gate's error probability, and measured
// bits are flipped with the per-qubit readout error. Error accumulation
// therefore grows with gate count, and longer idle-free circuits decohere
// more — the coupling the ARG experiments of Fig. 11(b) rely on.
type NoiseModel struct {
	// OneQubit is the fault probability per one-qubit gate.
	OneQubit float64
	// TwoQubit maps canonical physical edges {u<v} to the per-CNOT fault
	// probability; gates that decompose into k CNOTs draw k times.
	TwoQubit map[[2]int]float64
	// TwoQubitDefault is used for edges absent from TwoQubit.
	TwoQubitDefault float64
	// Readout is the per-qubit measurement bit-flip probability (nil: ideal).
	Readout []float64
}

// NoiseFromDevice builds a NoiseModel from a device's calibration snapshot.
// It panics if the device has no calibration.
func NoiseFromDevice(d *device.Device) *NoiseModel {
	if d.Calib == nil {
		panic("sim: device " + d.Name + " has no calibration")
	}
	nm := &NoiseModel{
		OneQubit: d.Calib.SingleQubitError,
		TwoQubit: make(map[[2]int]float64, len(d.Calib.CNOTError)),
	}
	for k, v := range d.Calib.CNOTError {
		nm.TwoQubit[k] = v
	}
	if d.Calib.ReadoutError != nil {
		nm.Readout = append([]float64(nil), d.Calib.ReadoutError...)
	}
	return nm
}

func (nm *NoiseModel) twoQubitError(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if e, ok := nm.TwoQubit[[2]int{a, b}]; ok {
		return e
	}
	return nm.TwoQubitDefault
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
// through ApplyGate and every drawn Pauli as a gate after it. This is the
// plain oracle the Executor's Pauli-frame replay is checked against: it
// shares no simulation code with it.
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

// SampleNoisy draws shots measurement outcomes from the noisy execution of
// c, spreading them over the given number of independent Pauli-fault
// trajectories and applying readout bit-flips to every sample. It is the
// one-shot form of Executor.SampleNoisy (which amortizes the fused program
// and ideal state across calls); see there for the trajectory substream and
// Pauli-frame replay semantics.
func SampleNoisy(c *circuit.Circuit, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	return NewExecutor(c).SampleNoisy(nm, shots, trajectories, rng)
}

func flipReadout(x uint64, readout []float64, rng *rand.Rand) uint64 {
	for q, e := range readout {
		if e > 0 && rng.Float64() < e {
			x ^= 1 << uint(q)
		}
	}
	return x
}
