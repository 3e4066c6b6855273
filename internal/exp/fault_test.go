package exp

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/leaktest"
	"repro/internal/qaoa"
)

// The acceptance scenario of the fault-tolerance work: a tokyo device that
// lost two qubits and 20% of its calibration entries must still yield
// partial aggregates and a structured failure summary — never a panic, and
// never a fully aborted sweep point.
func TestRunPointOnDegradedTokyo(t *testing.T) {
	base := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(3)), 1e-2, 0.5e-2)
	spec := faultinject.Spec{Seed: 99, DeadQubits: 2, DeleteCalibFrac: 0.2}
	dev, rep, err := spec.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dead) != 2 || len(rep.DeletedCalib) == 0 {
		t.Fatalf("unexpected degradation %v", rep)
	}

	DrainFaultReports() // isolate this test's reports
	const instances = 6
	aggs, err := runPoint(ErdosRenyi, 16, 0.4, dev, compile.Presets, instances, 5, 0)
	if err != nil {
		t.Fatalf("runPoint on degraded device: %v", err)
	}
	for _, p := range compile.Presets {
		agg, ok := aggs[p]
		if !ok {
			t.Fatalf("no aggregate for %v", p)
		}
		if agg.N == 0 {
			t.Errorf("%v: zero surviving samples", p)
		}
	}
	// Whether any instance×preset pair failed depends on the degradation;
	// what matters is the accounting: reports only exist alongside failures,
	// and they render a sensible N-of-M summary.
	for _, r := range DrainFaultReports() {
		if r.Failed != len(r.Failures) {
			t.Fatalf("report counts %d failed but lists %d", r.Failed, len(r.Failures))
		}
		s := r.Summary()
		if !strings.Contains(s, "compilations ok") {
			t.Fatalf("summary %q", s)
		}
	}
}

// TestRunPointJoinsInstances: the parallel instance runner leaves no
// goroutine behind once runPoint returns, with more instances than the
// two cores it may run at once.
func TestRunPointJoinsInstances(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	DrainFaultReports()
	baseline := runtime.NumGoroutine()
	aggs, err := runPoint(ErdosRenyi, 8, 0.4, device.Tokyo20(), []compile.Preset{compile.PresetIC}, 5, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := aggs[compile.PresetIC].N; n != 5 {
		t.Fatalf("%d of 5 instances aggregated", n)
	}
	leaktest.Check(t, baseline)
}

// An unusable device (problem larger than its biggest component) must fail
// with an error carrying the failure details — not panic, not return empty
// aggregates silently.
func TestRunPointAllFailing(t *testing.T) {
	dev := device.Linear(4) // 16-node problems cannot fit
	DrainFaultReports()
	_, err := runPoint(ErdosRenyi, 16, 0.4, dev, []compile.Preset{compile.PresetIC}, 2, 5, 0)
	if err == nil {
		t.Fatal("want error when every compilation fails")
	}
	if !strings.Contains(err.Error(), "every compilation failed") {
		t.Fatalf("error %v", err)
	}
	reports := DrainFaultReports()
	if len(reports) != 1 || reports[0].Failed != 2 {
		t.Fatalf("reports = %+v", reports)
	}
}

// A pass hook that panics on some calls must be contained by the compile
// boundary as a typed error, never escaping to crash a sweep goroutine.
func TestPassPanicContainedAsError(t *testing.T) {
	pf := &faultinject.PassFaults{PanicEvery: 4}
	dev := device.Tokyo20()
	rng := rand.New(rand.NewSource(2))
	g, err := sampleGraph(ErdosRenyi, 10, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	prob := &qaoa.Problem{G: g, MaxCut: 1}
	okCount, failCount := 0, 0
	for i := 0; i < 8; i++ {
		opts := compile.PresetIP.Options(instanceRNG(5, i))
		opts.Hook = pf.Hook()
		_, err := compile.CompileContext(context.Background(),
			prob, structuralParams, dev, opts)
		if err == nil {
			okCount++
			continue
		}
		failCount++
		var pe *compile.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("compile %d failed with %v, want *PanicError", i, err)
		}
	}
	if okCount == 0 || failCount == 0 {
		t.Fatalf("every-4th panic hook: %d ok, %d failed — injection not exercised", okCount, failCount)
	}
}

// Context cancellation stops retrying immediately instead of burning the
// retry budget against a dead deadline.
func TestRunPointCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	DrainFaultReports()
	_, err := runPointCtx(ctx, ErdosRenyi, 16, 0.4, device.Tokyo20(), []compile.Preset{compile.PresetIC}, 2, 5, 0)
	if err == nil {
		t.Fatal("want error on cancelled context")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "every compilation failed") {
		t.Fatalf("error %v", err)
	}
	DrainFaultReports()
}
