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
