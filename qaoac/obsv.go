package qaoac

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/exp"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// Observability: per-pass tracing, counters and the BENCH_*.json metrics
// artifact. A Collector threads through compilation via
// CompileOptions.Obs / Device.Obs; the sweep harness and simulator pick it
// up through SetObservability. All collector methods are safe on nil, so
// leaving Obs unset costs nothing.

// Collector accumulates counters, gauges and span timings.
type Collector = obsv.Collector

// BenchReport is the stable machine-readable metrics artifact
// (BENCH_<rev>.json).
type BenchReport = obsv.Report

// BenchRecord is one named benchmark measurement of a report.
type BenchRecord = obsv.Benchmark

// BenchRegression is one benchmark metric that worsened beyond its
// threshold.
type BenchRegression = obsv.Regression

// BenchCompareOptions tunes the regression gate thresholds.
type BenchCompareOptions = obsv.CompareOptions

// BenchSuiteConfig parameterizes the reduced Fig. 7/8/9 benchmark suite.
type BenchSuiteConfig = exp.BenchConfig

// NewCollector returns an empty enabled collector.
func NewCollector() *Collector { return obsv.New() }

// SetObservability installs c as the process-wide collector of the sweep
// harness (exp) and the simulator. Pass nil to disable. Compilations you
// drive yourself still need CompileOptions.Obs set explicitly.
func SetObservability(c *Collector) {
	exp.SetCollector(c)
	sim.SetCollector(c)
}

// NewBenchReport builds a report for the given tool name and revision,
// snapshotting c (which may be nil).
func NewBenchReport(tool, revision string, c *Collector) *BenchReport {
	return obsv.NewReport(tool, revision, c)
}

// DefaultBenchFilename returns the conventional artifact name
// BENCH_<revision>.json.
func DefaultBenchFilename(revision string) string { return obsv.DefaultFilename(revision) }

// ReadBenchReport loads and schema-checks a BENCH_*.json file.
func ReadBenchReport(path string) (*BenchReport, error) { return obsv.ReadReportFile(path) }

// CompareBenchReports gates cur against base, returning every metric that
// regressed beyond the thresholds (empty means the gate passes).
func CompareBenchReports(base, cur *BenchReport, opts BenchCompareOptions) []BenchRegression {
	return obsv.Compare(base, cur, opts)
}

// DefaultBenchSuiteConfig returns the CI-scale suite configuration.
func DefaultBenchSuiteConfig() BenchSuiteConfig { return exp.DefaultBenchConfig() }

// RunBenchSuite runs the reduced figure benchmarks and appends their
// records to rep (see exp.RunBenchSuite).
func RunBenchSuite(ctx context.Context, cfg BenchSuiteConfig, rep *BenchReport) error {
	return exp.RunBenchSuite(ctx, cfg, rep)
}

// CalibrateTimeUnit times the fixed CPU-bound calibration workload whose
// duration (Report.TimeUnitSec) normalizes compile times across machines.
func CalibrateTimeUnit() float64 { return exp.CalibrateTimeUnit() }

// RevisionFromEnv returns the revision to stamp into reports: the argument
// if non-empty, else $GITHUB_SHA, else "dev".
func RevisionFromEnv(rev string) string {
	if rev != "" {
		return rev
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	return "dev"
}

// OpenLogWriter resolves the conventional -log flag every binary shares:
// "" disables (nil writer), "-" is stderr, anything else opens the file for
// append. close is a no-op unless a file was opened; callers defer it
// unconditionally.
func OpenLogWriter(path string) (w io.Writer, close func() error, err error) {
	switch path {
	case "":
		return nil, func() error { return nil }, nil
	case "-":
		return os.Stderr, func() error { return nil }, nil
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("qaoac: opening log %s: %w", path, err)
		}
		return f, f.Close, nil
	}
}

// NewWideLogger builds the shared one-JSON-object-per-line logger over w
// (nil w yields a logger that discards everything). See obsv.NewLogger.
func NewWideLogger(w io.Writer) *slog.Logger { return obsv.NewLogger(w) }
