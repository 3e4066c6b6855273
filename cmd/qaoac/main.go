// Command qaoac compiles a QAOA-MaxCut instance for a target device with a
// chosen methodology and prints the compiled circuit and its quality
// metrics.
//
// Usage:
//
//	qaoac -device tokyo -graph regular -nodes 16 -degree 3 -method IC [-print] [-p 1] [-seed 1]
//	qaoac -device melbourne -graph er -nodes 12 -prob 0.5 -method VIC
//	qaoac -device grid6x6 -graph er -nodes 36 -prob 0.5 -method IP -packing 8
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/qaoac"
)

func main() {
	var (
		deviceName = flag.String("device", "tokyo", "target device: tokyo | melbourne | falcon27 | grid6x6 | linearN | ringN")
		deviceFile = flag.String("device-file", "", "load a custom device from a JSON file (overrides -device)")
		graphKind  = flag.String("graph", "regular", "problem family: regular | er")
		graphFile  = flag.String("graph-file", "", "load the problem graph from an edge-list file (overrides -graph)")
		nodes      = flag.Int("nodes", 16, "problem graph size")
		degree     = flag.Int("degree", 3, "edges per node (regular graphs)")
		prob       = flag.Float64("prob", 0.5, "edge probability (erdos-renyi graphs)")
		method     = flag.String("method", "IC", "compilation method: NAIVE | GreedyV | QAIM | IP | IC | VIC")
		levels     = flag.Int("p", 1, "QAOA levels")
		packing    = flag.Int("packing", 0, "max CPhase gates per layer (0 = unlimited)")
		seed       = flag.Int64("seed", 1, "random seed")
		print      = flag.Bool("print", false, "print the compiled circuit")
		native     = flag.Bool("native", false, "print the native-basis circuit instead")
		draw       = flag.Bool("draw", false, "draw the compiled circuit as ASCII art")
		timeout    = flag.Duration("timeout", 0, "abort compilation after this long (0 = no deadline)")
		resilient  = flag.Bool("resilient", false, "retry and degrade through the preset ladder on failure")
		deadQubits = flag.Int("fault-dead", 0, "fault injection: kill this many random qubits")
		dropCalib  = flag.Float64("fault-calib", 0, "fault injection: delete this fraction of CNOT calibration entries")
		faultSeed  = flag.Int64("fault-seed", 1, "fault injection: seed for the degradation")
		metricsOut = flag.String("metrics-out", "", "write a BENCH_*.json metrics report of the compilation to this path")
		rev        = flag.String("rev", "", "revision stamped into the metrics report (default $GITHUB_SHA, then \"dev\")")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the compilation to this path (open in ui.perfetto.dev)")
		traceJSONL = flag.String("trace-jsonl", "", "write the raw decision-event stream as JSON Lines to this path")
		traceStrip = flag.Bool("trace-strip", false, "zero timestamps in the JSONL trace (byte-identical across fixed-seed runs)")
		explain    = flag.Bool("explain", false, "print the compilation's decision report: placements, SWAP heatmap, layer timeline")
		explainDOT = flag.String("explain-dot", "", "write the SWAP-heat coupling graph as Graphviz DOT to this path")
	)
	flag.Parse()

	tf := traceFlags{Chrome: *traceOut, JSONL: *traceJSONL, Strip: *traceStrip, Explain: *explain, DOT: *explainDOT}
	if err := run(*deviceName, *deviceFile, *graphKind, *graphFile, *nodes, *degree, *prob, *method, *levels, *packing, *seed, *print, *native, *draw,
		*timeout, *resilient, *deadQubits, *dropCalib, *faultSeed, *metricsOut, *rev, tf); err != nil {
		fmt.Fprintln(os.Stderr, "qaoac:", err)
		os.Exit(1)
	}
}

// traceFlags bundles the tracing/explainability outputs of one run.
type traceFlags struct {
	Chrome  string
	JSONL   string
	Strip   bool
	Explain bool
	DOT     string
}

func (tf traceFlags) enabled() bool {
	return tf.Chrome != "" || tf.JSONL != "" || tf.Explain || tf.DOT != ""
}

// write exports the recorded events to every requested sink.
func (tf traceFlags) write(events []qaoac.TraceEvent) error {
	if tf.Chrome != "" {
		if err := writeTo(tf.Chrome, func(w *os.File) error {
			return qaoac.WriteChromeTrace(w, events)
		}); err != nil {
			return err
		}
		fmt.Printf("trace:         %s (chrome trace-event JSON)\n", tf.Chrome)
	}
	if tf.JSONL != "" {
		if err := writeTo(tf.JSONL, func(w *os.File) error {
			return qaoac.WriteTraceJSONL(w, events, tf.Strip)
		}); err != nil {
			return err
		}
		fmt.Printf("trace:         %s (JSONL, %d events)\n", tf.JSONL, len(events))
	}
	if tf.DOT != "" {
		if err := writeTo(tf.DOT, func(w *os.File) error {
			qaoac.WriteTraceDOT(w, events)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("trace:         %s (Graphviz DOT)\n", tf.DOT)
	}
	if tf.Explain {
		fmt.Println()
		qaoac.WriteTraceExplain(os.Stdout, events)
	}
	return nil
}

// writeTo creates path (and missing parent directories) and runs fn on it,
// wrapping every failure with the path.
func writeTo(path string, fn func(*os.File) error) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func run(deviceName, deviceFile, graphKind, graphFile string, nodes, degree int, prob float64, method string, levels, packing int, seed int64, print, native, draw bool,
	timeout time.Duration, resilient bool, deadQubits int, dropCalib float64, faultSeed int64, metricsOut, rev string, tf traceFlags) error {
	var dev *qaoac.Device
	var err error
	if deviceFile != "" {
		data, rerr := os.ReadFile(deviceFile)
		if rerr != nil {
			return rerr
		}
		dev, err = qaoac.DeviceFromJSON(data)
	} else {
		dev, err = pickDevice(deviceName)
	}
	if err != nil {
		return err
	}
	if deadQubits > 0 || dropCalib > 0 {
		spec := qaoac.FaultSpec{Seed: faultSeed, DeadQubits: deadQubits, DeleteCalibFrac: dropCalib}
		degraded, rep, ferr := spec.Apply(dev)
		if ferr != nil {
			return ferr
		}
		fmt.Println(rep)
		dev = degraded
	}
	rng := rand.New(rand.NewSource(seed))

	var col *qaoac.Collector
	if metricsOut != "" {
		col = qaoac.NewCollector()
		qaoac.SetObservability(col)
		defer qaoac.SetObservability(nil)
		dev.Obs = col
	}

	var g *qaoac.Graph
	switch {
	case graphFile != "":
		data, rerr := os.ReadFile(graphFile)
		if rerr != nil {
			return rerr
		}
		g, err = qaoac.ParseEdgeList(string(data))
		if err != nil {
			return err
		}
	case graphKind == "regular":
		g, err = qaoac.RandomRegular(nodes, degree, rng)
		if err != nil {
			return err
		}
	case graphKind == "er":
		g = qaoac.ErdosRenyi(nodes, prob, rng)
	default:
		return fmt.Errorf("unknown graph family %q", graphKind)
	}

	preset, err := pickPreset(method)
	if err != nil {
		return err
	}

	params := qaoac.Params{Gamma: make([]float64, levels), Beta: make([]float64, levels)}
	for l := 0; l < levels; l++ {
		params.Gamma[l] = 0.8 / float64(l+1)
		params.Beta[l] = 0.4 / float64(l+1)
	}

	problem := &qaoac.Problem{G: g, MaxCut: 1}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var tr *qaoac.Tracer
	if tf.enabled() {
		tr = qaoac.NewTracer()
	}
	var res *qaoac.CompileResult
	if resilient {
		res, err = qaoac.CompileResilient(ctx, problem, params, dev, preset,
			qaoac.FallbackOptions{Seed: seed, PackingLimit: packing, Obs: col, Trace: tr})
	} else {
		opts := preset.Options(rng)
		opts.PackingLimit = packing
		opts.Obs = col
		opts.Trace = tr
		res, err = qaoac.CompileContext(ctx, problem, params, dev, opts)
	}
	if err != nil {
		return err
	}

	fmt.Printf("device:        %s (%d qubits, %d couplers)\n", dev.Name, dev.NQubits(), dev.Coupling.M())
	fmt.Printf("problem:       %s n=%d m=%d, p=%d\n", graphKind, g.N(), g.M(), levels)
	fmt.Printf("method:        %s (packing limit %d)\n", preset, packing)
	if fb := res.Fallback; fb != nil {
		if fb.Degraded {
			fmt.Printf("degraded:      %s -> %s after %d failed attempts (%s)\n", fb.Requested, fb.Effective, len(fb.Attempts), fb.Reason)
		} else if len(fb.Attempts) > 0 {
			fmt.Printf("retries:       %s succeeded after %d failed attempts\n", fb.Effective, len(fb.Attempts))
		}
	}
	fmt.Printf("initial map:   %s\n", res.Initial)
	fmt.Printf("final map:     %s\n", res.Final)
	fmt.Printf("swaps added:   %d\n", res.SwapCount)
	fmt.Printf("native depth:  %d\n", res.Depth)
	fmt.Printf("native gates:  %d\n", res.GateCount)
	fmt.Printf("compile time:  %s\n", res.Times.Total())
	if dev.Calib != nil {
		fmt.Printf("success prob:  %.6f\n", dev.SuccessProbability(res.Native))
	}
	fmt.Printf("exec time:     %.0f ns (IBM timing model)\n", res.Circuit.ExecutionTime(qaoac.IBMDurations()))
	if print {
		c := res.Circuit
		if native {
			c = res.Native
		}
		fmt.Println()
		fmt.Print(c.String())
	}
	if draw {
		fmt.Println()
		fmt.Print(qaoac.DrawCircuit(res.Circuit))
	}
	if metricsOut != "" {
		rep := qaoac.NewBenchReport("qaoac", qaoac.RevisionFromEnv(rev), col)
		rec := qaoac.BenchRecordOf("qaoac/"+preset.String(), res)
		if dev.Calib != nil {
			rec.SuccessProb = dev.SuccessProbability(res.Native)
		}
		rep.AddBenchmark(rec)
		if err := rep.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics:       %s\n", metricsOut)
	}
	if tf.enabled() {
		if err := tf.write(tr.Events()); err != nil {
			return err
		}
	}
	return nil
}

func pickDevice(name string) (*qaoac.Device, error) {
	switch {
	case name == "tokyo":
		return qaoac.Tokyo20(), nil
	case name == "melbourne":
		return qaoac.Melbourne15(), nil
	case name == "falcon27":
		return qaoac.Falcon27(), nil
	case name == "grid6x6":
		return qaoac.GridDevice(6, 6), nil
	case strings.HasPrefix(name, "linear"):
		var n int
		if _, err := fmt.Sscanf(name, "linear%d", &n); err != nil {
			return nil, fmt.Errorf("bad device %q (want e.g. linear8)", name)
		}
		return qaoac.LinearDevice(n), nil
	case strings.HasPrefix(name, "ring"):
		var n int
		if _, err := fmt.Sscanf(name, "ring%d", &n); err != nil {
			return nil, fmt.Errorf("bad device %q (want e.g. ring8)", name)
		}
		return qaoac.RingDevice(n), nil
	}
	return nil, fmt.Errorf("unknown device %q", name)
}

func pickPreset(method string) (qaoac.Preset, error) {
	for _, p := range qaoac.Presets {
		if strings.EqualFold(p.String(), method) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", method)
}
