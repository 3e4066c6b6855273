// Command qaoa-qasm compiles a QAOA-MaxCut instance and writes the
// hardware-compliant circuit as OpenQASM 2.0, for interchange with other
// toolchains (qiskit, tket). It can also round-trip: -check re-imports the
// emitted program and verifies it gate for gate.
//
// Usage:
//
//	qaoa-qasm -device melbourne -nodes 12 -degree 3 -method VIC -o circuit.qasm
//	qaoa-qasm -nodes 8 -method IC -native -check
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/qaoac"
)

func main() {
	var (
		deviceName = flag.String("device", "melbourne", "target device: tokyo | melbourne | grid6x6")
		nodes      = flag.Int("nodes", 12, "problem graph size")
		degree     = flag.Int("degree", 3, "edges per node (regular graph workload)")
		method     = flag.String("method", "IC", "compilation method")
		native     = flag.Bool("native", false, "emit the {u1,u2,u3,cx} decomposition")
		check      = flag.Bool("check", false, "re-import the emitted QASM and verify")
		out        = flag.String("o", "", "output file (default stdout)")
		seed       = flag.Int64("seed", 1, "random seed")
		timeout    = flag.Duration("timeout", 0, "abort compilation after this long (0 = no deadline)")
		metrics    = flag.String("metrics-out", "", "write a BENCH_*.json metrics report of the compilation to this path")
		rev        = flag.String("rev", "", "revision stamped into the metrics report (default $GITHUB_SHA, then \"dev\")")
	)
	flag.Parse()
	if err := run(*deviceName, *nodes, *degree, *method, *native, *check, *out, *seed, *timeout, *metrics, *rev); err != nil {
		fmt.Fprintln(os.Stderr, "qaoa-qasm:", err)
		os.Exit(1)
	}
}

func run(deviceName string, nodes, degree int, method string, native, check bool, out string, seed int64, timeout time.Duration, metricsOut, rev string) error {
	var dev *qaoac.Device
	switch deviceName {
	case "tokyo":
		dev = qaoac.Tokyo20()
	case "melbourne":
		dev = qaoac.Melbourne15()
	case "grid6x6":
		dev = qaoac.GridDevice(6, 6)
	default:
		return fmt.Errorf("unknown device %q", deviceName)
	}

	rng := rand.New(rand.NewSource(seed))
	g, err := qaoac.RandomRegular(nodes, degree, rng)
	if err != nil {
		return err
	}
	var preset qaoac.Preset
	found := false
	for _, p := range qaoac.Presets {
		if strings.EqualFold(p.String(), method) {
			preset, found = p, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown method %q", method)
	}
	opts := preset.Options(rng)
	opts.Measure = true
	var col *qaoac.Collector
	if metricsOut != "" {
		col = qaoac.NewCollector()
		opts.Obs = col
		dev.Obs = col
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := qaoac.CompileContext(ctx, &qaoac.Problem{G: g, MaxCut: 1}, qaoac.P1Params(0.8, 0.35), dev, opts)
	if err != nil {
		return err
	}
	c := res.Circuit
	if native {
		c = res.Native
	}
	src := qaoac.ExportQASM(c)

	if check {
		back, err := qaoac.ImportQASM(src)
		if err != nil {
			return fmt.Errorf("round-trip import failed: %w", err)
		}
		if back.Len() != c.Len() || back.NQubits != c.NQubits {
			return fmt.Errorf("round-trip mismatch: %d/%d gates, %d/%d qubits",
				back.Len(), c.Len(), back.NQubits, c.NQubits)
		}
		fmt.Fprintf(os.Stderr, "round-trip OK: %d gates on %d qubits\n", c.Len(), c.NQubits)
	}

	if metricsOut != "" {
		rep := qaoac.NewBenchReport("qaoa-qasm", qaoac.RevisionFromEnv(rev), col)
		rep.AddBenchmark(qaoac.BenchRecordOf("qaoa-qasm/"+preset.String(), res))
		if err := rep.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsOut)
	}

	if out == "" {
		fmt.Print(src)
		return nil
	}
	return os.WriteFile(out, []byte(src), 0o644)
}
