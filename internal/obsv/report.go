package obsv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// backwards-incompatible change to Report or Benchmark.
//
// Version history:
//
//	1 — compile-time/structural records only.
//	2 — adds per-record simulation time (sim_sec, sim_units) and the
//	    sim_time Compare gate; the simulator's noisy-trajectory RNG
//	    streams also changed, shifting sampled ARG values.
const SchemaVersion = 2

// Benchmark is one named measurement of the report: typically one
// figure×preset point of the benchmark suite, aggregated over Instances
// compiled instances. Times are means in seconds; Swaps/Depth/Gates are
// means over the instance set (deterministic under fixed seeds).
type Benchmark struct {
	Name      string `json:"name"`
	Instances int    `json:"instances,omitempty"`
	// CompileSec is the mean wall-clock compile time; MapSec, OrderSec and
	// RouteSec break it into the mapping, ordering/layer-formation and
	// SWAP-insertion passes.
	CompileSec float64 `json:"compile_sec"`
	MapSec     float64 `json:"map_sec"`
	OrderSec   float64 `json:"order_sec"`
	RouteSec   float64 `json:"route_sec"`
	// CompileUnits is CompileSec divided by the report's TimeUnitSec — a
	// machine-speed-normalized compile time that stays comparable across
	// hosts (see Report.TimeUnitSec). 0 when no calibration ran.
	CompileUnits float64 `json:"compile_units,omitempty"`
	// SimSec is the wall-clock time of the record's simulation workload
	// (the ideal + noisy ARG measurement); SimUnits is the
	// machine-normalized form (SimSec / TimeUnitSec, like CompileUnits).
	// 0 when not measured.
	SimSec   float64 `json:"sim_sec,omitempty"`
	SimUnits float64 `json:"sim_units,omitempty"`
	Swaps    float64 `json:"swaps"`
	Depth    float64 `json:"depth"`
	Gates    float64 `json:"gates"`
	// ARGPct is the approximation-ratio gap (percent) measured on the
	// record's reduced noisy-simulation workload; 0 when not measured.
	ARGPct float64 `json:"arg_pct,omitempty"`
	// SuccessProb is the estimated circuit success probability on the
	// calibrated device; 0 when not measured.
	SuccessProb float64 `json:"success_prob,omitempty"`

	// Service-load fields, set only by qaoad-load records. All omitempty,
	// so their addition needs no schema bump (older readers ignore them,
	// older reports simply lack them).
	//
	// ReqPerSec is the sustained request throughput of the measured phase;
	// P50MS/P99MS are client-observed latency percentiles in milliseconds.
	ReqPerSec float64 `json:"req_per_sec,omitempty"`
	P50MS     float64 `json:"p50_ms,omitempty"`
	P99MS     float64 `json:"p99_ms,omitempty"`
	// Shed counts 429 load-shed responses, HTTP5xx the server-fault
	// responses, observed by the client during the phase.
	Shed    int64 `json:"shed,omitempty"`
	HTTP5xx int64 `json:"http_5xx,omitempty"`
	// ServerP50MS/ServerP99MS are the server-side latency quantiles for the
	// phase, read from the service's request histogram on /metrics. Recorded
	// next to the client-observed P50MS/P99MS so the two vantage points can
	// be cross-checked (they must agree within one histogram bucket).
	ServerP50MS float64 `json:"server_p50_ms,omitempty"`
	ServerP99MS float64 `json:"server_p99_ms,omitempty"`
	// SkeletonHitRate is the fraction of the angle-sweep phase's
	// second-and-later requests per structure that were served by binding a
	// cached routed skeleton (qaoad-load's sweep phase; 0 when not run).
	SkeletonHitRate float64 `json:"skeleton_hit_rate,omitempty"`
}

// Report is the stable machine-readable metrics artifact. It combines the
// benchmark records with a full dump of the collector (counters, gauges,
// span statistics).
type Report struct {
	Schema   int    `json:"schema"`
	Tool     string `json:"tool"`
	Revision string `json:"revision"`
	// CreatedAt is RFC 3339 UTC; zeroed by StripTimings so reports can be
	// compared byte for byte.
	CreatedAt string `json:"created_at,omitempty"`
	// TimeUnitSec is the duration of the fixed CPU-bound calibration
	// workload on the producing machine (seconds). Dividing wall-clock
	// compile times by it yields machine-normalized "compile units", which
	// is what Compare gates on when both reports carry a calibration.
	TimeUnitSec float64            `json:"time_unit_sec,omitempty"`
	Benchmarks  []Benchmark        `json:"benchmarks,omitempty"`
	Counters    map[string]int64   `json:"counters,omitempty"`
	Gauges      map[string]float64 `json:"gauges,omitempty"`
	Spans       []SpanStat         `json:"spans,omitempty"`
	// Histograms carries the collector's latency histograms (exact bucket
	// counts, deterministic bounds). omitempty: older readers ignore it,
	// older reports simply lack it — no schema bump needed.
	Histograms []HistogramStat `json:"histograms,omitempty"`
}

// NewReport builds a report stamped with the current UTC time, carrying a
// snapshot of c (nil c yields empty counter/gauge/span sections).
func NewReport(tool, revision string, c *Collector) *Report {
	r := &Report{
		Schema:    SchemaVersion,
		Tool:      tool,
		Revision:  revision,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	r.AttachCollector(c)
	return r
}

// AttachCollector replaces the report's counter, gauge and span sections
// with a fresh snapshot of c — call it after the instrumented work ran when
// the report object had to exist beforehand (nil c clears the sections).
func (r *Report) AttachCollector(c *Collector) {
	snap := c.Snapshot()
	r.Spans = snap.Spans
	r.Histograms = snap.Hists
	r.Counters = nil
	r.Gauges = nil
	if len(snap.Counters) > 0 {
		r.Counters = snap.Counters
	}
	if len(snap.Gauges) > 0 {
		r.Gauges = snap.Gauges
	}
}

// AddBenchmark appends one benchmark record.
func (r *Report) AddBenchmark(b Benchmark) { r.Benchmarks = append(r.Benchmarks, b) }

// Benchmark returns the named record and whether it exists.
func (r *Report) Benchmark(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// MarshalIndent renders the report as stable, human-diffable JSON:
// benchmarks and spans sorted by name, map keys sorted (encoding/json's
// default), trailing newline.
func (r *Report) MarshalIndent() ([]byte, error) {
	sort.Slice(r.Benchmarks, func(i, j int) bool { return r.Benchmarks[i].Name < r.Benchmarks[j].Name })
	sort.Slice(r.Spans, func(i, j int) bool { return r.Spans[i].Name < r.Spans[j].Name })
	sort.Slice(r.Histograms, func(i, j int) bool { return r.Histograms[i].Name < r.Histograms[j].Name })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the report to path (0644), creating missing parent
// directories. Every failure is wrapped with the target path so a CLI can
// print it and exit non-zero without further decoration.
func (r *Report) WriteFile(path string) error {
	data, err := r.MarshalIndent()
	if err != nil {
		return fmt.Errorf("obsv: encoding report for %s: %w", path, err)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("obsv: writing report %s: %w", path, err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obsv: writing report %s: %w", path, err)
	}
	return nil
}

// ParseReport decodes a report and checks its schema version.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obsv: parsing report: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("obsv: report schema %d, this build reads %d", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// ReadReportFile loads and parses a report from disk.
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseReport(data)
}

// DefaultFilename is the conventional artifact name for a revision:
// BENCH_<rev>.json with rev sanitized to [A-Za-z0-9._-] ("dev" when empty).
func DefaultFilename(revision string) string {
	if revision == "" {
		revision = "dev"
	}
	var b strings.Builder
	for _, c := range revision {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('-')
		}
	}
	return "BENCH_" + b.String() + ".json"
}

// StripTimings zeroes every wall-clock-derived field — the creation stamp,
// the time-unit calibration, per-benchmark pass times and span durations —
// leaving only the deterministic content (counters, gauges, span counts,
// structural metrics). Two reports produced from the same seeds must be
// byte-identical after StripTimings.
func (r *Report) StripTimings() {
	r.CreatedAt = ""
	r.TimeUnitSec = 0
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		b.CompileSec, b.MapSec, b.OrderSec, b.RouteSec, b.CompileUnits = 0, 0, 0, 0, 0
		b.SimSec, b.SimUnits = 0, 0
		b.ReqPerSec, b.P50MS, b.P99MS, b.ServerP50MS, b.ServerP99MS = 0, 0, 0, 0, 0
	}
	for i := range r.Spans {
		s := &r.Spans[i]
		s.TotalSec, s.MeanSec, s.MinSec, s.MaxSec = 0, 0, 0, 0
	}
	for i := range r.Histograms {
		h := &r.Histograms[i]
		// Bucket counts are wall-clock-derived (which bucket a request lands
		// in depends on machine speed); the bounds are deterministic and stay.
		for j := range h.Counts {
			h.Counts[j] = 0
		}
		h.Count, h.Sum = 0, 0
	}
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		b.ServerP50MS, b.ServerP99MS = 0, 0
	}
}

// Regression is one benchmark metric that worsened beyond its threshold.
type Regression struct {
	Benchmark string  // record name
	Metric    string  // "compile_time", "sim_time", "swaps", "depth", "missing", or a gated counter name
	Base, New float64 // baseline and current values
	Limit     float64 // allowed maximum (base scaled by the threshold)
}

// String renders the regression for CI logs.
func (g Regression) String() string {
	if g.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but missing from the current report", g.Benchmark)
	}
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g (limit %.4g)", g.Benchmark, g.Metric, g.Base, g.New, g.Limit)
}

// CompareOptions tunes the regression gate. Thresholds are fractions: 0.15
// fails any metric that worsens by more than 15% over the baseline.
type CompareOptions struct {
	// TimeThreshold gates compile time. When both reports carry a
	// TimeUnitSec calibration the comparison uses machine-normalized
	// compile units; otherwise raw seconds. Default 0.15.
	TimeThreshold float64
	// CountThreshold gates SWAP count and depth (deterministic under fixed
	// seeds, so any drift is a real change). Default 0.15.
	CountThreshold float64
	// TimeSlack is an absolute grace added to the compile-time limit, in the
	// gated unit (compile units when normalized, raw seconds otherwise).
	// Sub-millisecond records jitter by far more than any sane relative
	// threshold, so the relative gate alone would flake on them; the slack
	// keeps tiny records quiet while leaving slow records fully gated.
	// Default 0.05; negative disables.
	TimeSlack float64
	// SimThreshold gates sim_time the way TimeThreshold gates
	// compile_time. Wall-clock simulation time jitters far more than the
	// deterministic compile metrics (sub-second records, CPU-quota bursts
	// on shared runners), so it is only a catastrophic backstop with a
	// wide default (0.75); the precise simulation gate is the
	// deterministic work-counter comparison (see simWorkCounters), which
	// is exact under the suite's fixed seeds and immune to machine noise.
	SimThreshold float64
}

// simWorkCounters are the simulator cost counters gated by Compare. They
// are deterministic under fixed suite seeds — fused-op and amplitude-pass
// counts, trajectory replays and replayed gates — so any increase is a
// real algorithmic regression (e.g. lost fusion or checkpoint reuse), not
// scheduling noise.
var simWorkCounters = []string{
	CntSimFusedOps,
	CntSimAmpOps,
	CntSimReplays,
	CntSimReplayGates,
}

// compileWorkCounters are the compiler cost counters gated by Compare, the
// compile-side mirror of simWorkCounters: stochastic trials run, SWAPs
// inserted across all trials, candidate score evaluations and incremental
// distance updates. All are pure functions of the suite seeds — immune to
// machine speed and GOMAXPROCS — so the tight CountThreshold gate catches
// algorithmic regressions (a lost incremental update, a widened candidate
// scan) that the loose wall-clock backstop would miss.
var compileWorkCounters = []string{
	CntRouterTrials,
	CntRouterSwaps,
	CntRouterScoreEvals,
	CntCompileDistUpdates,
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.TimeThreshold == 0 {
		o.TimeThreshold = 0.15
	}
	if o.CountThreshold == 0 {
		o.CountThreshold = 0.15
	}
	if o.TimeSlack == 0 {
		o.TimeSlack = 0.05
	}
	if o.SimThreshold == 0 {
		o.SimThreshold = 0.75
	}
	if o.TimeSlack < 0 {
		o.TimeSlack = 0
	}
	return o
}

// Compare gates cur against base: every benchmark present in the baseline
// must still exist and must not regress compile time, simulation time,
// SWAP count or depth beyond the thresholds; the deterministic simulator
// and compiler work counters (simWorkCounters, compileWorkCounters) are
// gated run-wide at CountThreshold.
// Records only in cur (new benchmarks) pass freely.
// An empty result means the gate passes.
func Compare(base, cur *Report, opts CompareOptions) []Regression {
	opts = opts.withDefaults()
	var out []Regression
	useUnits := base.TimeUnitSec > 0 && cur.TimeUnitSec > 0
	for _, b := range base.Benchmarks {
		c, ok := cur.Benchmark(b.Name)
		if !ok {
			out = append(out, Regression{Benchmark: b.Name, Metric: "missing"})
			continue
		}
		baseTime, curTime := b.CompileSec, c.CompileSec
		if useUnits {
			baseTime, curTime = b.CompileUnits, c.CompileUnits
		}
		out = appendRegression(out, b.Name, "compile_time", baseTime, curTime, opts.TimeThreshold, opts.TimeSlack)
		baseSim, curSim := b.SimSec, c.SimSec
		if useUnits {
			baseSim, curSim = b.SimUnits, c.SimUnits
		}
		if baseSim > 0 { // 0 means the baseline never measured simulation
			out = appendRegression(out, b.Name, "sim_time", baseSim, curSim, opts.SimThreshold, opts.TimeSlack)
		}
		out = appendRegression(out, b.Name, "swaps", b.Swaps, c.Swaps, opts.CountThreshold, 0)
		out = appendRegression(out, b.Name, "depth", b.Depth, c.Depth, opts.CountThreshold, 0)
	}
	for _, name := range simWorkCounters {
		bv, ok := base.Counters[name]
		if !ok || bv == 0 {
			continue // baseline predates the counter; nothing to gate against
		}
		out = appendRegression(out, "counters", name, float64(bv),
			float64(cur.Counters[name]), opts.CountThreshold, 0)
	}
	for _, name := range compileWorkCounters {
		bv, ok := base.Counters[name]
		if !ok || bv == 0 {
			continue // baseline predates the counter; nothing to gate against
		}
		out = appendRegression(out, "counters", name, float64(bv),
			float64(cur.Counters[name]), opts.CountThreshold, 0)
	}
	return out
}

// appendRegression adds a Regression when cur exceeds base by more than the
// threshold fraction plus the absolute slack. A zero baseline is gated
// absolutely against threshold+slack (so 0 -> 0.1 swaps still passes a 0.15
// gate, while a genuine jump from zero fails).
func appendRegression(out []Regression, name, metric string, base, cur, threshold, slack float64) []Regression {
	limit := base*(1+threshold) + slack
	if base == 0 {
		limit = threshold + slack
	}
	if cur > limit {
		out = append(out, Regression{Benchmark: name, Metric: metric, Base: base, New: cur, Limit: limit})
	}
	return out
}
