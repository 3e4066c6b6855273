package qaoac

import (
	"context"

	"repro/internal/compile"
	"repro/internal/exp"
	"repro/internal/faultinject"
)

// Fault tolerance: deadlines, degraded devices and graceful preset
// degradation. See the "Fault model & degradation policy" sections of
// README.md and DESIGN.md.

// CompileContext is Compile honoring a deadline/cancellation: the context
// is checked between passes and between routed layers, and pass panics are
// converted into errors instead of crossing the API boundary.
func CompileContext(ctx context.Context, prob *Problem, params Params, dev *Device, opts CompileOptions) (*CompileResult, error) {
	return compile.CompileContext(ctx, prob, params, dev, opts)
}

// FallbackOptions tunes CompileResilient's retry/degradation policy.
type FallbackOptions = compile.FallbackOptions

// CompileResilient compiles with retries and graceful preset degradation:
// each ladder rung is retried with backoff on fresh seeds before stepping
// down, and the result records which preset actually ran.
func CompileResilient(ctx context.Context, prob *Problem, params Params, dev *Device, preset Preset, fo FallbackOptions) (*CompileResult, error) {
	return compile.CompileResilient(ctx, prob, params, dev, preset, fo)
}

// Fault injection.

// FaultSpec describes a reproducible device degradation (dead qubits,
// dropped couplings, deleted/drifted calibration), driven by a seed.
type FaultSpec = faultinject.Spec

// Experiment fault reports.

// PointReport is the structured failure summary of one partially-failed
// experiment sweep point.
type PointReport = exp.PointReport

// DrainFaultReports returns and clears the fault reports accumulated by the
// experiment harness since the previous drain.
func DrainFaultReports() []*PointReport { return exp.DrainFaultReports() }
