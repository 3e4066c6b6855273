package qaoac

import (
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Device serialization.

// DeviceFromJSON loads a custom device (coupling map + calibration) from
// its JSON description.
func DeviceFromJSON(data []byte) (*Device, error) { return device.FromJSON(data) }

// OpenQASM interchange.

// ExportQASM renders a circuit as an OpenQASM 2.0 program (CPhase → rzz).
func ExportQASM(c *Circuit) string { return qasm.Export(c) }

// ImportQASM parses the OpenQASM 2.0 subset ExportQASM emits.
func ImportQASM(src string) (*Circuit, error) { return qasm.Import(src) }

// DrawCircuit renders a circuit as ASCII art (one wire per qubit).
func DrawCircuit(c *Circuit) string { return c.Draw() }

// IBMDurations returns the superconducting gate-timing model; pair with
// Circuit.ExecutionTime for wall-clock estimates.
func IBMDurations() Durations { return circuit.IBMDurations() }

// Durations maps gate kinds to execution times.
type Durations = circuit.Durations

// Circuit optimization.

// Peephole applies local gate cancellation and rotation merging, preserving
// the circuit's unitary up to global phase.
func Peephole(c *Circuit) *Circuit { return circuit.Peephole(c) }

// Defaults and runners for the extension experiments (beyond the paper's
// printed figures).
var (
	DefaultExtLevels     = exp.DefaultExtLevels
	DefaultExtMappers    = exp.DefaultExtMappers
	DefaultExtCrosstalk  = exp.DefaultExtCrosstalk
	DefaultExtOptimize   = exp.DefaultExtOptimize
	ExtLevels            = exp.ExtLevels
	ExtMappers           = exp.ExtMappers
	ExtCrosstalk         = exp.ExtCrosstalk
	ExtOptimize          = exp.ExtOptimize
	DefaultExtDevices    = exp.DefaultExtDevices
	ExtDevices           = exp.ExtDevices
	DefaultExtOrdering   = exp.DefaultExtOrdering
	ExtOrdering          = exp.ExtOrdering
	DefaultExtMitigation = exp.DefaultExtMitigation
	ExtMitigation        = exp.ExtMitigation
	DefaultExtWorkloads  = exp.DefaultExtWorkloads
	ExtWorkloads         = exp.ExtWorkloads
	DefaultAngleSweep    = exp.DefaultAngleSweep
	AngleSweep           = exp.AngleSweep
)

// Measurement post-processing.

// SampleHistogram counts measurement outcomes.
func SampleHistogram(samples []uint64) map[uint64]int { return sim.Histogram(samples) }

// MitigateReadout inverts independent per-qubit readout errors on a
// measured histogram (tensored measurement-error mitigation), returning a
// quasi-probability vector over all 2^n outcomes.
func MitigateReadout(counts map[uint64]int, n int, readout []float64) ([]float64, error) {
	return sim.MitigateReadout(counts, n, readout)
}

// ExpectationFromDistribution evaluates a diagonal observable against an
// outcome distribution.
func ExpectationFromDistribution(p []float64, f func(x uint64) float64) float64 {
	return sim.ExpectationFromDistribution(p, f)
}
