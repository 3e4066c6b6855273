package compile

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/router"
)

// This file is the parameterized-compilation layer: a QAOA circuit's
// structure is fixed per (problem, device, preset, seed) — across the
// hundreds of optimizer evaluations and sweep points only the angles
// (γ, β) change, and every pass of the pipeline (mapping, layer
// formation, routing, stitching, decomposition) is provably
// angle-independent (see TestRoutingIsAngleIndependent). CompileSkeleton
// therefore pays the full pipeline once, recording where each rotation
// angle lands in the routed circuit, and Skeleton.Bind materializes a
// concrete Result for any angle set by writing phases into a preallocated
// gate buffer — zero routing work, near-zero allocation per evaluation.
//
// The mechanism: the skeleton is compiled from a spec whose rotation
// angles are unique sentinel values (large exact integers no real angle
// schedule produces). The pipeline carries angles through untouched —
// CPhase(θ) decomposes to CNOT·U1(θ)·CNOT and RX(θ) to U3(θ,−π/2,π/2),
// with no normalization or arithmetic on θ — so scanning the routed
// high-level and native circuits for the sentinels recovers exactly which
// gate slot belongs to which (level, role, term), no matter how the
// ordering passes permuted the terms. Peephole optimization merges
// rotations by value and is the one angle-dependent pass, so
// CompileSkeleton rejects Options.Optimize.

// ErrSkeletonOptimize rejects skeleton compilation with peephole
// optimization: peephole merges and cancels rotations based on their
// concrete angles, so an optimized circuit's structure is not
// angle-independent and cannot be rebound.
var ErrSkeletonOptimize = errors.New("compile: skeleton compilation is incompatible with peephole optimization (gate structure would depend on the angles)")

// WeightedTerm is one ZZ interaction of a parameterized cost Hamiltonian:
// at bind time the level-l cost phase of the (U,V) term is −γ[l]·Weight.
// MaxCut has unit weights; weighted MaxCut (the qaoad request schema)
// scales each edge's phase by its weight.
type WeightedTerm struct {
	U, V   int
	Weight float64
}

// ParamSpec is the angle-independent half of a Spec: the interaction
// structure and per-term weights, with the 2p angles left symbolic. The
// concrete Spec for an angle set is Spec(params); CompileSkeleton compiles
// the structure once so any angle set can be bound in microseconds.
//
// ParamSpec has no per-qubit linear (RZ) terms: the concrete pipeline
// drops zero-angle locals, so a circuit's structure would depend on which
// locals vanish at a given angle set — exactly the angle-dependence the
// skeleton contract forbids. Specs with linear terms must use the
// per-angle-set CompileSpec path.
type ParamSpec struct {
	// N is the number of logical qubits.
	N int
	// P is the number of QAOA levels; every level applies the same Terms.
	P int
	// Terms are the ZZ interactions of one cost layer.
	Terms []WeightedTerm
}

// ParamSpecFromMaxCut builds the p-level parameterized spec of a MaxCut
// problem: one unit-weight term per graph edge, matching SpecFromMaxCut
// term for term so a skeleton bind is byte-identical to the concrete
// compile.
func ParamSpecFromMaxCut(prob *qaoa.Problem, p int) (ParamSpec, error) {
	ps := ParamSpec{N: prob.NumQubits(), P: p, Terms: make([]WeightedTerm, 0, prob.G.M())}
	for _, e := range prob.G.Edges() {
		ps.Terms = append(ps.Terms, WeightedTerm{U: e.U, V: e.V, Weight: 1})
	}
	if err := ps.Validate(); err != nil {
		return ParamSpec{}, err
	}
	return ps, nil
}

// Validate checks qubit indices and level count.
func (ps ParamSpec) Validate() error {
	if ps.N <= 0 {
		return fmt.Errorf("compile: param spec has %d qubits", ps.N)
	}
	if ps.P <= 0 {
		return fmt.Errorf("compile: param spec has %d levels", ps.P)
	}
	for i, t := range ps.Terms {
		if t.U < 0 || t.U >= ps.N || t.V < 0 || t.V >= ps.N || t.U == t.V {
			return fmt.Errorf("compile: param spec term %d has invalid pair (%d,%d)", i, t.U, t.V)
		}
	}
	if ps.P*(len(ps.Terms)+1) >= maxSkeletonSlots {
		return fmt.Errorf("compile: param spec needs %d angle slots, beyond the %d the sentinel encoding distinguishes", ps.P*(len(ps.Terms)+1), maxSkeletonSlots)
	}
	return nil
}

// Sentinel encoding: each angle slot of the skeleton compile carries a
// unique exact-integer float64 far outside any real angle schedule. Cost
// slot (level l, term k) maps to costSentinelBase + l·T + k + 1 and the
// level-l mixer to mixerSentinelBase + l + 1; the bases are two apart in
// exponent so the ranges cannot collide, and every value (including the
// 2×mixer the RX layer emits) stays an exact integer well below 2^53.
const (
	costSentinelBase  = float64(1 << 40)
	mixerSentinelBase = float64(1 << 41)
	maxSkeletonSlots  = 1 << 38
)

func (ps ParamSpec) costSentinel(l, k int) float64 {
	return costSentinelBase + float64(l*len(ps.Terms)+k+1)
}

func (ps ParamSpec) mixerSentinel(l int) float64 {
	return mixerSentinelBase + float64(l+1)
}

// sentinelSpec builds the concrete Spec whose angles are the slot
// sentinels.
func (ps ParamSpec) sentinelSpec() Spec {
	s := Spec{N: ps.N, Levels: make([]LevelSpec, ps.P)}
	for l := range s.Levels {
		terms := make([]ZZTerm, len(ps.Terms))
		for k, t := range ps.Terms {
			terms[k] = ZZTerm{U: t.U, V: t.V, Theta: ps.costSentinel(l, k)}
		}
		s.Levels[l] = LevelSpec{ZZ: terms, MixerBeta: ps.mixerSentinel(l)}
	}
	return s
}

// costSlot records that template gate Gate carries the cost phase of
// (level Level, Terms[Term]); mixSlot that it carries the level-Level
// mixer angle.
type costSlot struct {
	gate  int32
	level int32
	term  int32
}

type mixSlot struct {
	gate  int32
	level int32
}

// Skeleton is a routed, stitched QAOA circuit with symbolic angle slots:
// the one-time product of the full mapping/ordering/routing pipeline for
// a (ParamSpec, device, options) triple. Bind writes a concrete angle set
// into the slots, yielding a Result byte-identical to compiling that
// angle set from scratch. A Skeleton is immutable after construction and
// safe for concurrent Bind calls with distinct buffers.
type Skeleton struct {
	n, p  int
	terms []WeightedTerm

	// circ and native are the sentinel-angle templates; Bind copies their
	// gate slices and overwrites the slots, never mutating the templates.
	circ, native         *circuit.Circuit
	circCost, nativeCost []costSlot
	circMix, nativeMix   []mixSlot

	// initial and final are shared by reference with every bound Result;
	// layouts are treated as immutable after compilation.
	initial, final *router.Layout

	swapCount, depth, gateCount                int
	compileTime, mapTime, orderTime, routeTime time.Duration

	fallback *FallbackInfo
	obs      *obsv.Collector
}

// N returns the number of logical qubits.
func (s *Skeleton) N() int { return s.n }

// P returns the number of QAOA levels an angle set must have to bind.
func (s *Skeleton) P() int { return s.p }

// SwapCount, Depth and GateCount report the routed metrics, which are
// angle-independent and therefore shared by every bound Result.
func (s *Skeleton) SwapCount() int { return s.swapCount }

// Depth is documented with SwapCount.
func (s *Skeleton) Depth() int { return s.depth }

// GateCount is documented with SwapCount.
func (s *Skeleton) GateCount() int { return s.gateCount }

// Fallback reports how the degradation ladder arrived at this skeleton
// (nil for direct CompileSkeleton calls, always set by
// CompileSkeletonResilient).
func (s *Skeleton) Fallback() *FallbackInfo { return s.fallback }

// CompileSkeleton runs the full pipeline once for the parameterized spec
// and returns the reusable skeleton. opts are the usual compile options;
// Optimize is rejected (see ErrSkeletonOptimize). The routing rng is
// consumed exactly as a concrete compile would consume it, so a skeleton
// compiled with a given seed binds to the byte-identical circuit that a
// concrete compile with the same seed would produce.
func CompileSkeleton(ctx context.Context, ps ParamSpec, dev *device.Device, opts Options) (*Skeleton, error) {
	if err := ps.Validate(); err != nil {
		return nil, err
	}
	if opts.Optimize {
		return nil, ErrSkeletonOptimize
	}
	res, err := CompileSpecContext(ctx, ps.sentinelSpec(), dev, opts)
	if err != nil {
		return nil, err
	}
	sk, err := newSkeleton(ps, res, opts.Obs)
	if err != nil {
		return nil, err
	}
	opts.Obs.Inc(obsv.CntSkeletonCompiles)
	return sk, nil
}

// newSkeleton locates every sentinel in the routed circuits and freezes
// the result into a bindable skeleton.
func newSkeleton(ps ParamSpec, res *Result, obs *obsv.Collector) (*Skeleton, error) {
	costIdx := make(map[float64]costSlot, ps.P*len(ps.Terms))
	mixIdx := make(map[float64]int32, ps.P)
	for l := 0; l < ps.P; l++ {
		for k := range ps.Terms {
			costIdx[ps.costSentinel(l, k)] = costSlot{level: int32(l), term: int32(k)}
		}
		// The pipeline emits the mixer as RX(2β), and U3 keeps the RX
		// angle verbatim, so both circuits carry twice the sentinel.
		mixIdx[2*ps.mixerSentinel(l)] = int32(l)
	}
	sk := &Skeleton{
		n: ps.N, p: ps.P,
		terms:   append([]WeightedTerm(nil), ps.Terms...),
		circ:    res.Circuit,
		native:  res.Native,
		initial: res.Initial, final: res.Final,
		swapCount: res.SwapCount, depth: res.Depth, gateCount: res.GateCount,
		compileTime: res.CompileTime, mapTime: res.MapTime,
		orderTime: res.OrderTime, routeTime: res.RouteTime,
		obs: obs,
	}
	var err error
	if sk.circCost, sk.circMix, err = scanSlots(res.Circuit, costIdx, mixIdx); err != nil {
		return nil, fmt.Errorf("compile: skeleton scan of routed circuit: %w", err)
	}
	if sk.nativeCost, sk.nativeMix, err = scanSlots(res.Native, costIdx, mixIdx); err != nil {
		return nil, fmt.Errorf("compile: skeleton scan of native circuit: %w", err)
	}
	// Every slot of every level must surface in both circuits: a missing
	// slot means a pass transformed an angle, which would bind silently
	// wrong — fail loud instead.
	want := ps.P * len(ps.Terms)
	if len(sk.circCost) != want || len(sk.nativeCost) != want {
		return nil, fmt.Errorf("compile: skeleton recovered %d/%d cost slots in the routed circuit and %d/%d in the native circuit", len(sk.circCost), want, len(sk.nativeCost), want)
	}
	if len(sk.circMix) != ps.P*ps.N || len(sk.nativeMix) != ps.P*ps.N {
		return nil, fmt.Errorf("compile: skeleton recovered %d mixer slots in the routed circuit and %d in the native circuit, want %d", len(sk.circMix), len(sk.nativeMix), ps.P*ps.N)
	}
	return sk, nil
}

// scanSlots maps each parameterized gate of a template back to its angle
// slot via the sentinel it carries. Any rotation whose angle is not a
// known sentinel means the pipeline transformed an angle the skeleton
// contract says it must carry verbatim.
func scanSlots(c *circuit.Circuit, costIdx map[float64]costSlot, mixIdx map[float64]int32) ([]costSlot, []mixSlot, error) {
	var costs []costSlot
	var mixes []mixSlot
	for i, g := range c.Gates {
		switch g.Kind {
		case circuit.CPhase, circuit.U1:
			cs, ok := costIdx[g.Params[0]]
			if !ok {
				return nil, nil, fmt.Errorf("gate %d: %v carries phase %v, not a cost sentinel", i, g.Kind, g.Params[0])
			}
			cs.gate = int32(i)
			costs = append(costs, cs)
		case circuit.RX, circuit.U3:
			l, ok := mixIdx[g.Params[0]]
			if !ok {
				return nil, nil, fmt.Errorf("gate %d: %v carries angle %v, not a mixer sentinel", i, g.Kind, g.Params[0])
			}
			mixes = append(mixes, mixSlot{gate: int32(i), level: l})
		case circuit.RZ, circuit.RY:
			return nil, nil, fmt.Errorf("gate %d: unexpected parameterized %v in a skeleton template", i, g.Kind)
		}
	}
	return costs, mixes, nil
}

// BindBuffer holds the reusable storage of a bind: the two materialized
// gate lists and the Result shell. A buffer reaches its high-water
// allocation on the first bind and allocates nothing afterwards; it may
// be reused across binds (each bind invalidates the previous Result) but
// not across goroutines.
type BindBuffer struct {
	circ, native circuit.Circuit
	res          Result
}

// Bind materializes the skeleton for one angle set into fresh storage.
// For per-evaluation binding use BindTo with a reused buffer.
func (s *Skeleton) Bind(params qaoa.Params) (*Result, error) {
	return s.BindTo(new(BindBuffer), params)
}

// BindTo materializes a concrete compiled circuit for params in buf and
// returns buf's Result: gate-for-gate and byte-for-byte what
// CompileSpecContext would produce for the concrete spec with the same
// options and seed, at the cost of two gate-slice copies. The Result
// shares the skeleton's layouts (immutable) and reports the skeleton's
// one-time pass timings; it is valid until buf's next bind.
//
//qaoa:hotpath
func (s *Skeleton) BindTo(buf *BindBuffer, params qaoa.Params) (*Result, error) {
	//lint:allow hotpath: once-per-bind prologue outside the per-slot loops; Validate allocates only when rejecting
	if err := params.Validate(); err != nil {
		return nil, err
	}
	//lint:allow hotpath: Params.P is a len accessor
	if params.P() != s.p {
		return nil, fmt.Errorf("compile: binding %d-level params on a %d-level skeleton", params.P(), s.p) //lint:allow hotpath: guarded cold error path
	}
	buf.circ.NQubits = s.circ.NQubits
	//lint:allow hotpath: high-water reuse — the copy grows buf once, then binds are allocation-free (BenchmarkSkeletonBindTo)
	buf.circ.Gates = append(buf.circ.Gates[:0], s.circ.Gates...)
	buf.native.NQubits = s.native.NQubits
	//lint:allow hotpath: high-water reuse — the copy grows buf once, then binds are allocation-free (BenchmarkSkeletonBindTo)
	buf.native.Gates = append(buf.native.Gates[:0], s.native.Gates...)
	writeSlots(buf.circ.Gates, s.circCost, s.circMix, s.terms, params)
	writeSlots(buf.native.Gates, s.nativeCost, s.nativeMix, s.terms, params)
	s.obs.Inc(obsv.CntCompileBinds)
	buf.res = Result{
		Circuit: &buf.circ, Native: &buf.native,
		Initial: s.initial, Final: s.final,
		SwapCount: s.swapCount, Depth: s.depth, GateCount: s.gateCount,
		CompileTime: s.compileTime, MapTime: s.mapTime,
		OrderTime: s.orderTime, RouteTime: s.routeTime,
		Fallback: s.fallback,
	}
	return &buf.res, nil
}

// writeSlots overwrites the angle slots of a materialized gate list with
// the concrete angles, using exactly the arithmetic the concrete pipeline
// uses (−γ[l]·w cost phases, 2β[l] mixer rotations) so equality is
// bitwise, not just numeric.
//
//qaoa:hotpath
func writeSlots(gates []circuit.Gate, costs []costSlot, mixes []mixSlot, terms []WeightedTerm, params qaoa.Params) {
	for _, cs := range costs {
		gates[cs.gate].Params[0] = -params.Gamma[cs.level] * terms[cs.term].Weight
	}
	for _, ms := range mixes {
		gates[ms.gate].Params[0] = 2 * params.Beta[ms.level]
	}
}
