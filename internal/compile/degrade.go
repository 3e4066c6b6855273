package compile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/qaoa"
	"repro/internal/trace"
)

// Attempt records one try of the degradation ladder: which preset ran, the
// zero-based retry index within its rung, and the error it failed with.
type Attempt struct {
	Preset Preset
	Retry  int
	Err    string
}

// FallbackInfo reports how CompileResilient arrived at its result.
type FallbackInfo struct {
	// Requested is the preset the caller asked for; Effective is the preset
	// that produced the returned circuit.
	Requested, Effective Preset
	// Degraded is true when Effective differs from Requested.
	Degraded bool
	// Reason is the error that forced the first step down the ladder
	// (empty when not degraded).
	Reason string
	// Attempts lists every failed try before the success, in order.
	Attempts []Attempt
}

// FallbackOptions tunes the degradation ladder of CompileResilient.
type FallbackOptions struct {
	// Retries is the number of extra attempts per rung after the first,
	// each on a fresh deterministic seed (default 1; negative disables
	// retries).
	Retries int
	// Backoff is the pause before a retry, doubling per retry within a rung
	// and honoring ctx (default 5ms; the first attempt of each rung never
	// waits).
	Backoff time.Duration
	// AttemptTimeout bounds each individual attempt (0 = only the caller's
	// ctx bounds it). When an attempt times out but the caller's ctx is
	// still live, the ladder treats it like any other failure and moves on.
	AttemptTimeout time.Duration
	// Seed derives the per-attempt rngs, keeping the whole ladder
	// reproducible (default 1).
	Seed int64
	// PackingLimit, Optimize, Hook and Obs carry through to the
	// underlying Options of every attempt. Obs additionally receives the
	// ladder's own counters: compile/fallback_attempts (failed tries before
	// the success), compile/fallback_degraded (ladders that stepped down)
	// and compile/fallback_depth_total (rungs descended).
	PackingLimit int
	Optimize     bool
	Hook         Hook
	Obs          *obsv.Collector
	// Trace carries through to every attempt's Options and additionally
	// receives one fallback event per failed attempt plus a final event for
	// the attempt that produced the returned circuit, so the ladder's path
	// is readable straight off the stream.
	Trace *trace.Tracer
}

func (fo FallbackOptions) withDefaults() FallbackOptions {
	if fo.Retries == 0 {
		fo.Retries = 1
	}
	if fo.Retries < 0 {
		fo.Retries = 0
	}
	if fo.Backoff == 0 {
		fo.Backoff = 5 * time.Millisecond
	}
	if fo.Seed == 0 {
		fo.Seed = 1
	}
	return fo
}

// Ladder returns the preset fallback sequence starting at p: each step
// trades compilation quality for robustness, ending at NAIVE, which needs
// neither calibration nor clever layer formation. The variation-aware and
// incremental strategies degrade along the paper's own quality ordering
// VIC → IC → IP → NAIVE; the pure mapping presets fall straight to NAIVE.
func Ladder(p Preset) []Preset {
	switch p {
	case PresetVIC:
		return []Preset{PresetVIC, PresetIC, PresetIP, PresetNaive}
	case PresetIC:
		return []Preset{PresetIC, PresetIP, PresetNaive}
	case PresetIP:
		return []Preset{PresetIP, PresetNaive}
	case PresetQAIM:
		return []Preset{PresetQAIM, PresetNaive}
	case PresetGreedyV:
		return []Preset{PresetGreedyV, PresetNaive}
	default:
		return []Preset{PresetNaive}
	}
}

// LadderError reports that every rung of the degradation ladder failed.
type LadderError struct {
	Requested Preset
	Attempts  []Attempt
}

func (e *LadderError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compile: all fallbacks for %v failed (%d attempts):", e.Requested, len(e.Attempts))
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, " [%v#%d: %s]", a.Preset, a.Retry, a.Err)
	}
	return b.String()
}

// CompileResilient compiles prob with the requested preset, surviving the
// failure modes of degraded devices: each rung of the preset's fallback
// ladder is attempted with bounded retries (fresh seed per retry, backoff
// between them), and on persistent failure the next rung runs. The returned
// Result always carries a FallbackInfo recording the effective preset and
// every failed attempt. Context deadline/cancellation aborts the whole
// ladder immediately; unrecoverable shape errors (problem larger than the
// usable device) do too, since no preset can fix them.
func CompileResilient(ctx context.Context, prob *qaoa.Problem, params qaoa.Params, dev *device.Device, preset Preset, fo FallbackOptions) (*Result, error) {
	spec, err := SpecFromMaxCut(prob, params)
	if err != nil {
		return nil, err
	}
	return CompileSpecResilient(ctx, spec, dev, preset, fo)
}

// CompileSpecResilient is CompileResilient for arbitrary commuting-cost
// specs.
func CompileSpecResilient(ctx context.Context, spec Spec, dev *device.Device, preset Preset, fo FallbackOptions) (*Result, error) {
	fo = fo.withDefaults()
	res, fb, err := runLadder(ctx, dev, preset, fo,
		func(ctx context.Context, p Preset, rung, retry int) (*Result, error) {
			return CompileSpecContext(ctx, spec, dev, attemptOptions(p, rung, retry, fo))
		})
	if err != nil {
		return nil, err
	}
	res.Fallback = fb
	return res, nil
}

// CompileSkeletonResilient is CompileSkeleton behind the same graceful-
// degradation ladder CompileSpecResilient runs: each rung compiles a
// skeleton with that rung's preset and per-attempt seed, so the returned
// skeleton binds exactly what CompileSpecResilient would have produced
// under the same fallback path. The skeleton's Fallback (and that of
// every Result it binds) records the ladder's journey.
func CompileSkeletonResilient(ctx context.Context, ps ParamSpec, dev *device.Device, preset Preset, fo FallbackOptions) (*Skeleton, error) {
	fo = fo.withDefaults()
	sk, fb, err := runLadder(ctx, dev, preset, fo,
		func(ctx context.Context, p Preset, rung, retry int) (*Skeleton, error) {
			return CompileSkeleton(ctx, ps, dev, attemptOptions(p, rung, retry, fo))
		})
	if err != nil {
		return nil, err
	}
	sk.res.Fallback = fb
	return sk, nil
}

// runLadder walks preset's degradation ladder, running attempt with
// bounded retries per rung, and returns the first success together with
// the FallbackInfo describing the path to it. fo must already carry its
// defaults. It is the shared engine of CompileSpecResilient and
// CompileSkeletonResilient — one set of retry/abort/observability
// semantics, whatever artifact an attempt produces.
func runLadder[T any](ctx context.Context, dev *device.Device, preset Preset, fo FallbackOptions,
	attempt func(ctx context.Context, p Preset, rung, retry int) (T, error)) (T, *FallbackInfo, error) {
	var zero T
	var attempts []Attempt
	var firstFailure string

	for rung, p := range Ladder(preset) {
		if p == PresetVIC && dev.Calib == nil {
			// VIC cannot run without calibration; record why and step down.
			attempts = append(attempts, Attempt{Preset: p, Err: fmt.Sprintf("vic requires device calibration on %s", dev.Name)})
			if firstFailure == "" {
				firstFailure = attempts[len(attempts)-1].Err
			}
			if fo.Trace.Enabled() {
				fo.Trace.Fallback(trace.FallbackInfo{Preset: p.String(), Err: attempts[len(attempts)-1].Err})
			}
			continue
		}
		for retry := 0; retry <= fo.Retries; retry++ {
			if retry > 0 {
				if err := sleepCtx(ctx, fo.Backoff<<uint(retry-1)); err != nil {
					return zero, nil, fmt.Errorf("compile: fallback aborted: %w", err)
				}
			}
			res, err := runAttempt(ctx, fo.AttemptTimeout, p, rung, retry, attempt)
			if err == nil {
				fb := &FallbackInfo{
					Requested: preset,
					Effective: p,
					Degraded:  p != preset,
					Reason:    firstFailure,
					Attempts:  attempts,
				}
				if fo.Obs.Enabled() {
					fo.Obs.Inc(obsv.CntCompileResilient)
					fo.Obs.Add(obsv.CntFallbackAttempts, int64(len(attempts)))
					fo.Obs.Add(obsv.CntFallbackDepthTotal, int64(rung))
					if fb.Degraded {
						fo.Obs.Inc(obsv.CntFallbackDegraded)
					}
				}
				if fo.Trace.Enabled() {
					fo.Trace.Fallback(trace.FallbackInfo{Preset: p.String(), Retry: retry, Final: true})
				}
				return res, fb, nil
			}
			attempts = append(attempts, Attempt{Preset: p, Retry: retry, Err: err.Error()})
			if firstFailure == "" {
				firstFailure = err.Error()
			}
			if fo.Trace.Enabled() {
				fo.Trace.Fallback(trace.FallbackInfo{Preset: p.String(), Retry: retry, Err: err.Error()})
			}
			if ctx.Err() != nil {
				// The caller's deadline is spent; degrading further would
				// only burn more of nothing.
				return zero, nil, fmt.Errorf("compile: fallback aborted after %d attempts: %w", len(attempts), err)
			}
			var insufficient *InsufficientQubitsError
			if errors.As(err, &insufficient) {
				// No preset can conjure missing qubits.
				return zero, nil, err
			}
		}
	}
	return zero, nil, &LadderError{Requested: preset, Attempts: attempts}
}

// runAttempt runs a single ladder attempt under its optional per-attempt
// timeout.
func runAttempt[T any](ctx context.Context, timeout time.Duration, p Preset, rung, retry int,
	attempt func(ctx context.Context, p Preset, rung, retry int) (T, error)) (T, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return attempt(ctx, p, rung, retry)
}

// attemptOptions derives the per-attempt compile options: a fresh
// deterministic rng per (rung, retry) plus the carried-through fallback
// options.
func attemptOptions(p Preset, rung, retry int, fo FallbackOptions) Options {
	rng := rand.New(rand.NewSource(fo.Seed + int64(rung)*1_000_033 + int64(retry)*7_919))
	opts := p.Options(rng)
	opts.PackingLimit = fo.PackingLimit
	opts.Optimize = fo.Optimize
	opts.Hook = fo.Hook
	opts.Obs = fo.Obs
	opts.Trace = fo.Trace
	return opts
}

// sleepCtx pauses for d unless ctx finishes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
