// Package compile implements the paper's four QAOA compilation
// methodologies on top of the conventional layered backend in package
// router:
//
//   - QAIM — integrated Qubit Allocation and Initial Mapping (§IV-A)
//   - IP   — Instruction Parallelization by first-fit-decreasing bin
//     packing of the commuting CPhase gates (§IV-B)
//   - IC   — Incremental Compilation, forming one CPhase layer at a time
//     under the live post-SWAP layout (§IV-C)
//   - VIC  — Variation-aware IC over reliability-weighted distances (§IV-D)
//
// plus the NAIVE and GreedyV baselines the paper compares against. The five
// named configurations of the evaluation are exposed as Presets.
package compile

import (
	"fmt"
	"math/rand"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// Mapper selects the initial logical-to-physical mapping policy.
type Mapper int

const (
	// MapRandom places logical qubits on a random subset of physical qubits
	// (the NAIVE baseline's initial mapping).
	MapRandom Mapper = iota
	// MapGreedyV places the heaviest logical qubits on the highest-degree
	// physical qubits (Murali et al., ASPLOS'19).
	MapGreedyV
	// MapQAIM is the paper's integrated qubit allocation + initial mapping.
	MapQAIM
	// MapReverse refines a random mapping by reverse traversal (Li et al.,
	// ASPLOS'19) — a higher-cost baseline the paper discusses in §III.
	MapReverse
)

// String names the mapper.
func (m Mapper) String() string {
	switch m {
	case MapRandom:
		return "random"
	case MapGreedyV:
		return "greedyV"
	case MapQAIM:
		return "qaim"
	case MapReverse:
		return "reverse-traversal"
	}
	return fmt.Sprintf("mapper(%d)", int(m))
}

// Strategy selects how the commuting CPhase gates are ordered and routed.
type Strategy int

const (
	// WholeRandom compiles the complete circuit with randomly ordered
	// CPhase gates in a single backend call.
	WholeRandom Strategy = iota
	// WholeIP pre-orders the CPhase gates into packed parallel layers (IP)
	// and compiles the complete circuit in a single backend call.
	WholeIP
	// Incremental forms one CPhase layer at a time from the gates whose
	// endpoints are closest under the current layout, compiling and
	// stitching partial circuits (IC).
	Incremental
	// IncrementalVariation is Incremental over reliability-weighted
	// distances (VIC); it requires device calibration.
	IncrementalVariation
	// WholeColor pre-orders the CPhase gates by Misra–Gries edge coloring
	// (color classes are matchings, so the cost block schedules in ≤ Δ+1
	// layers — Vizing's guarantee, vs IP's first-fit heuristic) and
	// compiles the complete circuit in a single backend call.
	WholeColor
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case WholeRandom:
		return "whole-random"
	case WholeIP:
		return "ip"
	case Incremental:
		return "ic"
	case IncrementalVariation:
		return "vic"
	case WholeColor:
		return "vizing"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Hook observes pass boundaries during compilation. It is called at the
// start of the stage it names, inside that stage's time and trace bracket:
// once for "map" (after validation), then "order" and "route" once each
// for the whole-circuit strategies, or "route" once per formed layer for
// IC/VIC, after the layer is formed. A non-nil return aborts the
// compilation with that error. Fault-injection harnesses use hooks to
// simulate pass crashes (panics are recovered at the compile boundary and
// converted to *PanicError naming the hook's stage) and latency; nil
// disables the mechanism.
type Hook func(stage string) error

// Stage names: the stages of Times, their trace brackets, the hook
// arguments and PanicError.Stage values. Hooks fire only for map, order and
// route.
const (
	StageMap    = "map"
	StageOrder  = "order"
	StageRoute  = "route"
	StageStitch = "stitch"
	StageLower  = "lower"
)

// Options configures a compilation run.
type Options struct {
	Mapper   Mapper
	Strategy Strategy
	// PackingLimit caps the CPhase gates per formed layer in IP/IC/VIC
	// (0 = unlimited, i.e. pack to the fullest as in §V).
	PackingLimit int
	// StrengthRadius is the neighbourhood radius of QAIM's connectivity
	// strength metric (default 2 — first plus second neighbours).
	StrengthRadius int
	// LookaheadWeight is passed to the router (default 0.5; negative
	// disables lookahead).
	LookaheadWeight float64
	// RouterTrials > 1 lets the backend route each (partial) circuit that
	// many times with randomized tie-breaking and keep the fewest-SWAP
	// attempt (stochastic-swap). The attempts run in parallel across
	// GOMAXPROCS workers with deterministically pre-drawn per-trial
	// shuffles, and attempts that can no longer beat the best-so-far swap
	// count are pruned early, so the result is byte-identical to a
	// sequential best-of-N loop at well below N× the single-shot cost
	// (see DESIGN.md §11).
	RouterTrials int
	// Rng drives random tie-breaking and the NAIVE random choices; a nil
	// value gets a fixed-seed source so runs are reproducible by default.
	Rng *rand.Rand
	// Measure appends measurement gates after compilation when true.
	Measure bool
	// Optimize applies peephole rewrites (gate cancellation and rotation
	// merging, circuit.Peephole) to the compiled circuit and its native
	// decomposition — the analogue of a conventional compiler's higher
	// optimization levels.
	Optimize bool
	// Hook, when non-nil, is invoked at every pass boundary (see Hook).
	Hook Hook
	// Obs, when non-nil, receives this compilation's Times as spans
	// (compile/total, compile/map, compile/order, compile/route and
	// compile/lower once per call, compile/stitch once per incremental
	// compile that stitched; the stages sum to compile/total) and counters
	// (swaps, gates, layers stitched), and is forwarded to the routing
	// backend. A nil collector costs nothing (see internal/obsv).
	Obs *obsv.Collector
	// Trace, when non-nil, receives the per-decision event stream of this
	// compilation — initial-placement choices, incremental layer formation,
	// every SWAP with its before/after layout, stitch boundaries — and is
	// forwarded to the routing backend. A nil tracer costs nothing (see
	// internal/trace).
	Trace *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.StrengthRadius <= 0 {
		o.StrengthRadius = 2
	}
	if o.LookaheadWeight == 0 {
		o.LookaheadWeight = 0.5
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// Preset names the five evaluated configurations of the paper.
type Preset int

const (
	// PresetNaive is random mapping + random order through the backend.
	PresetNaive Preset = iota
	// PresetGreedyV is GreedyV mapping + random order.
	PresetGreedyV
	// PresetQAIM is QAIM mapping + random order.
	PresetQAIM
	// PresetIP is QAIM mapping + instruction-parallelized order.
	PresetIP
	// PresetIC is QAIM mapping + incremental compilation.
	PresetIC
	// PresetVIC is QAIM mapping + variation-aware incremental compilation.
	PresetVIC
)

// String names the preset as in the paper.
func (p Preset) String() string {
	switch p {
	case PresetNaive:
		return "NAIVE"
	case PresetGreedyV:
		return "GreedyV"
	case PresetQAIM:
		return "QAIM"
	case PresetIP:
		return "IP"
	case PresetIC:
		return "IC"
	case PresetVIC:
		return "VIC"
	}
	return fmt.Sprintf("preset(%d)", int(p))
}

// Presets lists all presets in paper order.
var Presets = []Preset{PresetNaive, PresetGreedyV, PresetQAIM, PresetIP, PresetIC, PresetVIC}

// Options expands the preset into concrete options sharing the given rng.
func (p Preset) Options(rng *rand.Rand) Options {
	o := Options{Rng: rng}
	switch p {
	case PresetNaive:
		o.Mapper, o.Strategy = MapRandom, WholeRandom
	case PresetGreedyV:
		o.Mapper, o.Strategy = MapGreedyV, WholeRandom
	case PresetQAIM:
		o.Mapper, o.Strategy = MapQAIM, WholeRandom
	case PresetIP:
		o.Mapper, o.Strategy = MapQAIM, WholeIP
	case PresetIC:
		o.Mapper, o.Strategy = MapQAIM, Incremental
	case PresetVIC:
		o.Mapper, o.Strategy = MapQAIM, IncrementalVariation
	default:
		panic("compile: unknown preset")
	}
	return o
}
