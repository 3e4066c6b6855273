package qaoac

import "repro/internal/loop"

// HardwareEvaluator scores one QAOA parameter point in the quantum-classical
// hybrid optimization loop (§II): it compiles for a device once and samples
// the noisy execution of each bound angle set — hardware-in-the-loop
// against the simulator substitute.
type HardwareEvaluator = loop.HardwareEvaluator
