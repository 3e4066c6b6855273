package compile

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/router"
	"repro/internal/trace"
)

// PanicError wraps a panic recovered at the compile boundary. Pass bugs and
// device-model panics (e.g. a calibration query on a severed edge) surface
// as ordinary errors instead of crashing the caller; Value holds the
// original panic payload so typed panics (like *device.NotCoupledError)
// remain inspectable via errors.As on the Unwrap chain.
type PanicError struct {
	// Stage is the stage the compile was in when it panicked (StageMap
	// through StageLower); a hook's panic reports the hook's stage.
	Stage string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("compile: panic in %s pass: %v", e.Stage, e.Value)
}

// Unwrap exposes a panic payload that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Result is a compiled QAOA circuit with its quality metrics.
type Result struct {
	// Circuit is the hardware-compliant physical circuit over the device
	// register, in high-level gates (H/CPhase/RZ/RX/Swap/Measure).
	Circuit *circuit.Circuit
	// Native is Circuit decomposed into the IBM basis {U1,U2,U3,CNOT}; the
	// depth and gate-count metrics are measured on it, as the paper does.
	Native *circuit.Circuit
	// Initial and Final are the logical-to-physical layouts before and
	// after SWAP insertion. Final tells which physical qubit to read out
	// for each logical qubit.
	Initial, Final *router.Layout
	// SwapCount is the number of inserted SWAP gates.
	SwapCount int
	// Depth and GateCount are measured on Native.
	Depth, GateCount int
	// Times is the wall-clock compilation duration split by stage.
	Times Times
	// Fallback records how the graceful-degradation ladder arrived at this
	// result (requested vs effective preset, retries, reasons). It is nil
	// for direct Compile/CompileSpec calls, and always set by
	// CompileResilient — even on the happy path, where Degraded is false.
	Fallback *FallbackInfo
}

// Times is the wall-clock cost of one compilation, split into stages that
// partition it: Map (validation and initial mapping), Order (term ordering
// and layer formation), Route (backend SWAP insertion, the share a
// conventional compiler's runtime corresponds to; see EXPERIMENTS.md on
// compile-time normalization), Stitch (appending IC/VIC partial circuits
// and mixer layers; zero for the whole-circuit strategies) and Lower
// (decomposition, peephole optimization, depth and gate count). Each
// stage's hook and trace events run inside it, and the same clock readings
// stamp the stage's trace brackets.
type Times struct {
	Map, Order, Route, Stitch, Lower time.Duration
}

// Total is the compile's wall time, the sum of its stages.
func (t Times) Total() time.Duration { return t.Map + t.Order + t.Route + t.Stitch + t.Lower }

// record folds one compilation into obs: compile/total and the map,
// order, route and lower stages once per call (zero for a stage a failed
// compile never reached), compile/stitch once per compile that stitched.
// The stage spans therefore sum to compile/total.
func (t Times) record(obs *obsv.Collector) {
	obs.RecordSpan(obsv.SpanCompileTotal, t.Total())
	obs.RecordSpan(obsv.SpanCompileMap, t.Map)
	obs.RecordSpan(obsv.SpanCompileOrder, t.Order)
	obs.RecordSpan(obsv.SpanCompileRoute, t.Route)
	if t.Stitch > 0 {
		obs.RecordSpan(obsv.SpanCompileStitch, t.Stitch)
	}
	obs.RecordSpan(obsv.SpanCompileLower, t.Lower)
}

// lapClock is a compilation's one record of its stages: each reading of
// the clock closes the running stage and opens the next, so the stages
// partition the compile by construction. The same reading closes and opens
// the stages' trace brackets, and the running stage's name is what a
// recovered panic reports. It points into itself, so it is used in place.
type lapClock struct {
	Times
	running *time.Duration
	stage   string
	mark    time.Time
	tr      *trace.Tracer
}

// enter charges the time since the last reading to the running stage (none
// on the first call), moves the trace bracket from it to stage, and makes
// stage, timed into d, the running one. enter("", nil) ends the compile.
func (c *lapClock) enter(stage string, d *time.Duration) {
	now := time.Now() //lint:allow determinism: compile stage timing; Times and spans are stripped by the gates
	if c.running != nil {
		*c.running += now.Sub(c.mark)
	}
	c.tr.Pass(c.stage, stage, now)
	c.running, c.stage, c.mark = d, stage, now
}

// traceTo starts bracketing stages into tr, opening the running stage's
// bracket at the clock's last reading.
func (c *lapClock) traceTo(tr *trace.Tracer) {
	c.tr = tr
	tr.Pass("", c.stage, c.mark)
}

// ExtractLogical converts a measured physical bitstring y (bit p = physical
// qubit p) into the logical bitstring (bit v = vertex v) using the final
// layout — the read-out rule for compiled-circuit samples.
func (r *Result) ExtractLogical(y uint64) uint64 {
	var x uint64
	for q := 0; q < r.Final.NLogical(); q++ {
		if y&(1<<uint(r.Final.Phys(q))) != 0 {
			x |= 1 << uint(q)
		}
	}
	return x
}

// Compile lowers the QAOA MaxCut circuit for prob with the given angles
// onto dev using the configured methodology, and returns the compiled
// circuit with metrics. It is the MaxCut entry point; CompileSpec accepts
// arbitrary commuting cost Hamiltonians.
func Compile(prob *qaoa.Problem, params qaoa.Params, dev *device.Device, opts Options) (*Result, error) {
	return CompileContext(context.Background(), prob, params, dev, opts)
}

// CompileContext is Compile honoring a deadline/cancellation: the mapping,
// ordering and routing passes check ctx and return a ctx-wrapped error as
// soon as it is done.
func CompileContext(ctx context.Context, prob *qaoa.Problem, params qaoa.Params, dev *device.Device, opts Options) (*Result, error) {
	spec, err := SpecFromMaxCut(prob, params)
	if err != nil {
		return nil, err
	}
	return CompileSpecContext(ctx, spec, dev, opts)
}

// CompileSpec lowers an arbitrary commuting-cost QAOA circuit onto dev,
// tying together mapping (QAIM/GreedyV/random), term ordering (random/IP)
// and routing (whole-circuit or incremental).
func CompileSpec(spec Spec, dev *device.Device, opts Options) (*Result, error) {
	return CompileSpecContext(context.Background(), spec, dev, opts)
}

// CompileSpecContext is CompileSpec honoring ctx. It is also the recover
// boundary of the pipeline: a panic in any pass (or injected through
// Options.Hook) is converted into a *PanicError instead of escaping to the
// caller, so one bad compilation cannot take down a batch or a service.
func CompileSpecContext(ctx context.Context, spec Spec, dev *device.Device, opts Options) (res *Result, err error) {
	var clk lapClock
	clk.enter(StageMap, &clk.Map)
	traceStart := opts.Trace.Len()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Stage: clk.stage, Value: r}
		}
		clk.enter("", nil) // charge the rest to the stage that ended the compile
		if res != nil {
			res.Times = clk.Times
			if opts.Trace.Enabled() {
				opts.Obs.Add(obsv.CntTraceEvents, int64(opts.Trace.Len()-traceStart))
			}
		}
		clk.record(opts.Obs)
	}()
	o := opts.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.N > dev.NQubits() {
		return nil, &InsufficientQubitsError{Device: dev.Name, Need: spec.N, Usable: dev.NQubits(), Total: dev.NQubits()}
	}
	if o.Strategy == IncrementalVariation && dev.Calib == nil {
		return nil, fmt.Errorf("compile: VIC requires device calibration on %s", dev.Name)
	}
	if err := checkpoint(ctx, StageMap, o.Hook); err != nil {
		return nil, err
	}
	if o.Trace.Enabled() {
		o.Trace.Meta(traceMeta(ctx, spec, dev, o))
		clk.traceTo(o.Trace)
	}

	var initial *router.Layout
	if o.Mapper == MapReverse {
		initial, err = ReverseTraversalMapping(spec, dev, o)
	} else {
		initial, err = buildMapping(spec.InteractionGraph(), dev, o)
	}
	if err != nil {
		return nil, err
	}

	switch o.Strategy {
	case WholeRandom, WholeIP, WholeColor:
		res, err = compileWhole(ctx, spec, dev, initial, o, &clk)
	case Incremental, IncrementalVariation:
		res, err = compileIncremental(ctx, spec, dev, initial, o, &clk)
	default:
		return nil, fmt.Errorf("compile: unknown strategy %v", o.Strategy)
	}
	if err != nil {
		return nil, err
	}

	clk.enter(StageLower, &clk.Lower)
	res.lower(o.Optimize)
	if o.Obs.Enabled() {
		o.Obs.Inc(obsv.CntCompilations)
		o.Obs.Add(obsv.CntCompileSwaps, int64(res.SwapCount))
		o.Obs.Add(obsv.CntCompileGates, int64(res.GateCount))
		o.Obs.Add(obsv.CntCompileDepthTotal, int64(res.Depth))
	}
	return res, nil
}

// lower is the lower stage: decomposition into the IBM basis, peephole
// optimization of both circuits when optimize is set, and the native
// depth and gate count. It runs after every routing decision, so a
// skeleton bind runs it too, on the bound angles the peephole reads.
func (r *Result) lower(optimize bool) {
	if optimize {
		r.Circuit = circuit.Peephole(r.Circuit)
	}
	r.Native = r.Circuit.Decompose(circuit.BasisIBM)
	if optimize {
		r.Native = circuit.Peephole(r.Native)
	}
	r.Depth = r.Native.Depth()
	r.GateCount = r.Native.GateCount()
}

// traceMeta describes the compilation for the trace stream, including the
// coupling graph so the exporters are self-contained. A request ID carried
// by ctx (service compilations) is stamped into the meta event, joining the
// trace to the request's log line and inspector record.
func traceMeta(ctx context.Context, spec Spec, dev *device.Device, o Options) trace.MetaInfo {
	edges := dev.Coupling.Edges()
	coupling := make([][2]int, len(edges))
	for i, e := range edges {
		coupling[i] = [2]int{e.U, e.V}
	}
	return trace.MetaInfo{
		Device:    dev.Name,
		NQubits:   dev.NQubits(),
		Coupling:  coupling,
		NLogical:  spec.N,
		Mapper:    o.Mapper.String(),
		Strategy:  o.Strategy.String(),
		RequestID: obsv.RequestID(ctx),
	}
}

// checkpoint enforces ctx and fires the pass hook at a stage boundary.
func checkpoint(ctx context.Context, stage string, hook Hook) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("compile: %s pass: %w", stage, err)
	}
	if hook != nil {
		if err := hook(stage); err != nil {
			return fmt.Errorf("compile: %s pass: %w", stage, err)
		}
		// A latency-injecting hook may outlive the deadline; re-check.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("compile: %s pass: %w", stage, err)
		}
	}
	return nil
}

// emitLocals appends the level's RZ phases mapped through the layout.
func emitLocals(out *circuit.Circuit, level LevelSpec, phys func(int) int) {
	if level.Local == nil {
		return
	}
	for q, theta := range level.Local {
		if theta != 0 {
			out.Append(circuit.NewRZ(phys(q), theta))
		}
	}
}

// compileWhole builds the complete logical circuit (with the strategy's
// ZZ-term order) and routes it in a single backend call — the NAIVE/QAIM/IP
// flow of Fig. 2.
func compileWhole(ctx context.Context, spec Spec, dev *device.Device, initial *router.Layout, o Options, clk *lapClock) (*Result, error) {
	clk.enter(StageOrder, &clk.Order)
	if err := checkpoint(ctx, StageOrder, o.Hook); err != nil {
		return nil, err
	}
	logical := circuit.New(spec.N)
	for q := 0; q < spec.N; q++ {
		logical.Append(circuit.NewH(q))
	}
	for _, level := range spec.Levels {
		var ordered []ZZTerm
		switch o.Strategy {
		case WholeRandom:
			ordered = RandomTermOrder(level.ZZ, o.Rng)
		case WholeIP:
			ordered = flattenTermLayers(IPTermLayers(spec.N, level.ZZ, o.Rng, o.PackingLimit))
		case WholeColor:
			var err error
			ordered, err = ColorTermOrder(spec.N, level.ZZ)
			if err != nil {
				return nil, err
			}
		}
		emitLocals(logical, level, func(q int) int { return q })
		for _, t := range ordered {
			logical.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
		}
		for q := 0; q < spec.N; q++ {
			logical.Append(circuit.NewRX(q, 2*level.MixerBeta))
		}
	}
	if o.Measure {
		logical.MeasureAll()
	}

	clk.enter(StageRoute, &clk.Route)
	if err := checkpoint(ctx, StageRoute, o.Hook); err != nil {
		return nil, err
	}
	r := router.New(dev)
	r.LookaheadWeight = o.LookaheadWeight
	r.Trials, r.Rng = o.RouterTrials, o.Rng
	r.Obs = o.Obs
	r.Trace = o.Trace
	routed, err := r.RouteContext(ctx, logical, initial)
	if err != nil {
		return nil, err
	}
	return &Result{
		Circuit:   routed.Circuit,
		Initial:   routed.Initial,
		Final:     routed.Final,
		SwapCount: routed.SwapCount,
	}, nil
}

// compileIncremental is the IC/VIC flow of Fig. 2: ZZ layers are formed
// one at a time from the terms whose endpoints are closest under the
// current layout, each layer is routed as a partial circuit, and the
// partial circuits are stitched. VIC differs only in the distance matrix
// (reliability-weighted) handed to layer formation and routing.
func compileIncremental(ctx context.Context, spec Spec, dev *device.Device, initial *router.Layout, o Options, clk *lapClock) (*Result, error) {
	dist := dev.HopDistances()
	if o.Strategy == IncrementalVariation {
		dist = dev.ReliabilityDistances()
	}
	r := &router.Router{
		Dev: dev, Dist: dist, LookaheadWeight: o.LookaheadWeight,
		Trials: o.RouterTrials, Rng: o.Rng, Obs: o.Obs, Trace: o.Trace,
	}

	n := spec.N
	out := circuit.New(dev.NQubits())
	layout := initial.Clone()
	swaps := 0
	layerIdx := 0

	// Initial H layer, mapped through the initial layout.
	for q := 0; q < n; q++ {
		out.Append(circuit.NewH(layout.Phys(q)))
	}

	// Layer-formation scratch, reused across every pack of the compile:
	// the occupancy flags, the packed-layer buffer, and the single-layer
	// partial circuit (the router copies what it needs out of it).
	occupied := make([]bool, n)
	var layerBuf []ZZTerm
	partial := circuit.New(n)
	for li, level := range spec.Levels {
		emitLocals(out, level, layout.Phys)
		remaining := append([]ZZTerm(nil), level.ZZ...)
		for len(remaining) > 0 {
			clk.enter(StageOrder, &clk.Order)
			layer, rest := nextIncrementalLayer(remaining, layout, dist, o, occupied, layerBuf)
			layerBuf = layer // keep the high-water scratch for the next pack
			// Route the single-layer partial circuit from the live layout.
			partial.Gates = partial.Gates[:0]
			for _, t := range layer {
				partial.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
			}
			if o.Trace.Enabled() {
				o.Trace.Layer(traceLayer(layerIdx, li, layer, rest, layout, dist))
			}
			clk.enter(StageRoute, &clk.Route)
			if err := checkpoint(ctx, StageRoute, o.Hook); err != nil {
				return nil, err
			}
			routed, err := r.RouteContext(ctx, partial, layout)
			if err != nil {
				return nil, err
			}
			clk.enter(StageStitch, &clk.Stitch)
			out.AppendCircuit(routed.Circuit)
			o.Obs.Inc(obsv.CntCompileLayers)
			if o.Trace.Enabled() {
				o.Trace.Stitch(trace.StitchInfo{
					Layer: layerIdx,
					Gates: len(routed.Circuit.Gates),
					Swaps: routed.SwapCount,
				})
			}
			layerIdx++
			layout = routed.Final
			swaps += routed.SwapCount
			remaining = rest
		}
		// Mixer layer under the current layout.
		for q := 0; q < n; q++ {
			out.Append(circuit.NewRX(layout.Phys(q), 2*level.MixerBeta))
		}
	}
	if o.Measure {
		for q := 0; q < n; q++ {
			out.Append(circuit.NewMeasure(layout.Phys(q)))
		}
	}
	return &Result{
		Circuit:   out,
		Initial:   initial,
		Final:     layout,
		SwapCount: swaps,
	}, nil
}

// traceLayer snapshots one incremental layer-formation decision: the
// selected terms with the live distances that ranked them, and how much
// work was deferred.
func traceLayer(index, level int, layer, rest []ZZTerm, layout *router.Layout, dist *graphs.DistanceMatrix) trace.LayerInfo {
	terms := make([]trace.TermInfo, len(layer))
	for i, t := range layer {
		pu, pv := layout.Phys(t.U), layout.Phys(t.V)
		terms[i] = trace.TermInfo{U: t.U, V: t.V, PU: pu, PV: pv, Dist: dist.Dist(pu, pv)}
	}
	return trace.LayerInfo{Index: index, Level: level, Terms: terms, Deferred: len(rest)}
}

// nextIncrementalLayer sorts the remaining ZZ terms by the current physical
// distance of their endpoints (ascending, ties random) and packs one layer
// greedily. The layer lands in layerBuf's storage and the deferred terms are
// compacted into remaining's own storage (safe: the write cursor never
// passes the read cursor), so the packing loop allocates nothing once the
// caller's scratch reaches its high-water mark. occupied is caller-owned
// per-logical-qubit scratch, handed back all-false.
func nextIncrementalLayer(remaining []ZZTerm, layout *router.Layout, dist *graphs.DistanceMatrix, o Options, occupied []bool, layerBuf []ZZTerm) (layer, rest []ZZTerm) {
	o.Rng.Shuffle(len(remaining), func(i, j int) {
		remaining[i], remaining[j] = remaining[j], remaining[i]
	})
	sort.SliceStable(remaining, func(a, b int) bool {
		da := dist.Dist(layout.Phys(remaining[a].U), layout.Phys(remaining[a].V))
		db := dist.Dist(layout.Phys(remaining[b].U), layout.Phys(remaining[b].V))
		return da < db
	})
	layer = layerBuf[:0]
	rest = remaining[:0]
	for _, t := range remaining {
		if (o.PackingLimit > 0 && len(layer) >= o.PackingLimit) ||
			occupied[t.U] || occupied[t.V] {
			rest = append(rest, t)
			continue
		}
		layer = append(layer, t)
		occupied[t.U], occupied[t.V] = true, true
	}
	for _, t := range layer {
		occupied[t.U], occupied[t.V] = false, false
	}
	return layer, rest
}
