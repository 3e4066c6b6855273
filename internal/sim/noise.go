package sim

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obsv"
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
// Pauli-frame replay semantics. Its sim/sample_noisy span covers building
// the executor too.
func SampleNoisy(c *circuit.Circuit, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	if shots <= 0 {
		return []uint64{}
	}
	span := Collector().StartSpan(obsv.SpanSimSampleNoisy)
	defer span.End()
	return NewExecutor(c).sampleNoisy(nm, shots, trajectories, rng)
}
