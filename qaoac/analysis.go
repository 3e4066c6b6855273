package qaoac

import (
	"repro/internal/compile"
	"repro/internal/dag"
)

// Commutation analysis (the freedom the compilation passes exploit).

// CommutationDepth returns the depth achievable by re-ordering commuting
// gates on fully-connected hardware — a lower bound for schedulers.
func CommutationDepth(c *Circuit) int { return dag.New(c).Depth() }

// CommutingGroups returns the maximal interchangeable gate runs of c (for
// a QAOA circuit: the per-level cost blocks).
func CommutingGroups(c *Circuit) [][]int { return dag.New(c).CommutingGroups() }

// Compiling external circuits.

// CompileCircuit compiles an externally built QAOA-shaped circuit (e.g.
// imported via ImportQASM) through the configured methodology.
func CompileCircuit(c *Circuit, dev *Device, opts CompileOptions) (*CompileResult, error) {
	return compile.CompileCircuit(c, dev, opts)
}
