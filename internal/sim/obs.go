package sim

import (
	"sync/atomic"

	"repro/internal/obsv"
)

// Package-level observability collector. The simulator is called from deep
// inside the sweep harness and the optimization loop, whose call chains
// mirror the paper's experiment signatures; rather than threading a
// collector through every one of them, it is installed here (mirroring the
// exp fault-report collector). Atomic, so concurrent trajectory fan-outs
// may run while it is swapped.
var simObs atomic.Pointer[obsv.Collector]

// SetCollector installs (or, with nil, removes) the collector that receives
// the simulator counters: sim/runs, sim/gates, sim/fused_ops (the ops of
// RunOn calls and of executors' ideal runs, counted again where a prefix
// reruns them for checkpoints the run has passed), sim/amp_ops, sim/noisy_shots,
// sim/trajectories and the replay counters. sim/amp_ops is the work
// measure: every fused op applied counts the length of the register it
// runs on, paired with the next op in one pass or not — in RunOn, an
// executor's ideal run, the prefix that serves checkpoints the run has
// passed, and each trajectory's walk — and so does every copy of a
// checkpoint into a replay state and every stretch's correction. Counters
// are batched once per run/sampling call, so the per-amplitude hot loops
// never touch the collector.
func SetCollector(c *obsv.Collector) { simObs.Store(c) }

// Collector returns the installed collector (nil when observability is
// disabled).
func Collector() *obsv.Collector { return simObs.Load() }
