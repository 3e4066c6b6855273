package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/device"
)

// CompileRequest is the JSON body of POST /v1/compile: the same
// device/circuit/config trio the original QAOA-Compiler takes as input
// files, folded into one document. Exactly one of Device (a full inline
// device description) or DeviceName (a device registered with the server)
// must be set.
type CompileRequest struct {
	// Device is an inline device document in the internal/device JSON
	// schema (coupling map + optional calibration).
	Device json.RawMessage `json:"device,omitempty"`
	// DeviceName names a device registered with the server ("tokyo",
	// "melbourne", ...). Registered devices participate in calibration
	// epochs: reloading calibration bumps the epoch and invalidates the
	// affected cache entries.
	DeviceName string `json:"device_name,omitempty"`
	// Circuit is the problem description: the ZZ interactions of the cost
	// Hamiltonian.
	Circuit CircuitDoc `json:"circuit"`
	// Config is the compiler configuration.
	Config ConfigDoc `json:"config"`
}

// CircuitDoc describes the problem QAOA circuit: n logical qubits and the
// required ZZ interactions between qubit pairs (the cost Hamiltonian),
// mirroring QAOA-Compiler's circuit_json. Weights scale the per-level
// gamma; omitted or zero weights default to 1 (plain MaxCut).
type CircuitDoc struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
	// Weights has one entry per edge when present.
	Weights []float64 `json:"weights,omitempty"`
}

// ConfigDoc mirrors QAOA-Compiler's config_json: target p-level, packing
// limit, compilation policy and seed, plus the service-level knobs
// (deadline, resilience).
type ConfigDoc struct {
	// Policy is the compilation preset: NAIVE | GreedyV | QAIM | IP | IC |
	// VIC (default IC).
	Policy string `json:"policy,omitempty"`
	// P is the number of QAOA levels (default 1).
	P int `json:"p,omitempty"`
	// Gamma and Beta are the per-level angles. When omitted they default to
	// the fixed schedule gamma[l]=0.8/(l+1), beta[l]=0.4/(l+1) — the same
	// angles the qaoac CLI uses — so a pure-compilation client need not
	// care about angles at all.
	Gamma []float64 `json:"gamma,omitempty"`
	Beta  []float64 `json:"beta,omitempty"`
	// PackingLimit caps CPhase gates per formed layer (0 = unlimited).
	PackingLimit int `json:"packing_limit,omitempty"`
	// Seed drives every random choice of the compilation (default 1), so a
	// request is a pure function of its document.
	Seed int64 `json:"seed,omitempty"`
	// Optimize applies peephole rewrites to the compiled circuits.
	Optimize bool `json:"optimize,omitempty"`
	// DeadlineMS bounds how long this client waits for the result. The
	// compile flight itself runs under the server's compile budget; the
	// deadline bounds only this request's wait, so an impatient client can
	// never abort a compilation other waiters still want (see DESIGN §10).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// EmitQASM includes the OpenQASM 2.0 export of the native circuit in
	// the response.
	EmitQASM bool `json:"emit_qasm,omitempty"`
}

// CompileResponse is the JSON body of a successful POST /v1/compile.
type CompileResponse struct {
	Status string `json:"status"`
	// CacheKey identifies the compiled artifact: requests with equal keys
	// receive byte-identical circuits.
	CacheKey string `json:"cache_key"`
	// Cached is true when the result was served from the compiled-circuit
	// cache (including singleflight waiters of the same flight).
	Cached bool   `json:"cached"`
	Device string `json:"device"`
	// PresetRequested and PresetEffective record graceful degradation: they
	// differ when the fallback ladder or an open circuit breaker routed the
	// request to a cheaper preset.
	PresetRequested string `json:"preset_requested"`
	PresetEffective string `json:"preset_effective"`
	Degraded        bool   `json:"degraded,omitempty"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	Attempts        int    `json:"attempts,omitempty"`

	Swaps         int    `json:"swaps"`
	Depth         int    `json:"depth"`
	Gates         int    `json:"gates"`
	InitialLayout []int  `json:"initial_layout"`
	FinalLayout   []int  `json:"final_layout"`
	Circuit       string `json:"circuit"`
	QASM          string `json:"qasm,omitempty"`
}

// ErrorResponse is the JSON body of a failed request. Kind is machine
// matchable: bad_request | shed | breaker_open | deadline | compile_failed
// | draining.
type ErrorResponse struct {
	Status string `json:"status"`
	Kind   string `json:"kind"`
	Error  string `json:"error"`
}

// parsedRequest is a validated, canonicalized compile request ready to key
// the cache and drive a flight.
type parsedRequest struct {
	dev      *device.Device
	deviceID string // registered "name@epoch" or "inline:<fingerprint>"
	devName  string
	preset   compile.Preset
	seed     int64
	packing  int
	optimize bool
	emitQASM bool
	key      string        // full cache/singleflight key (includes angles)
	wait     time.Duration // client wait budget (0 = server default)

	// The request as structure and angles: the angle-free structure, the
	// angles to bind, and the angle-free skeleton-tier key. Optimize
	// requests have no skeleton key — peephole rewriting is angle-
	// dependent, so those can only be cached post-bind — and compile the
	// concrete spec built from the other three.
	paramSpec compile.ParamSpec
	gamma     []float64
	beta      []float64
	skelKey   string
}

// spec is the request's concrete compile.Spec: the canonical terms at each
// level's gamma, plus the level's mixer angle. Only optimize requests
// compile one, so it is built there, not on every request; parseRequest
// has already checked everything compile.Spec.Validate checks.
func (p *parsedRequest) spec() compile.Spec {
	s := compile.Spec{N: p.paramSpec.N, Levels: make([]compile.LevelSpec, p.paramSpec.P)}
	for l := range s.Levels {
		terms := make([]compile.ZZTerm, len(p.paramSpec.Terms))
		for i, t := range p.paramSpec.Terms {
			terms[i] = compile.ZZTerm{U: t.U, V: t.V, Theta: -p.gamma[l] * t.Weight}
		}
		s.Levels[l] = compile.LevelSpec{ZZ: terms, MixerBeta: p.beta[l]}
	}
	return s
}

// flightKey keys the singleflight group: skeleton-eligible requests
// deduplicate on the angle-free key, so concurrent distinct-angle requests
// over the same structure share a single routing pass and each waiter binds
// its own angles.
func (p *parsedRequest) flightKey() string {
	if p.skelKey != "" {
		return p.skelKey
	}
	return p.key
}

// parseRequest validates and canonicalizes req against the device registry.
// Canonicalization sorts the ZZ terms by (u,v), so two documents listing
// the same edges in different order compile to the same circuit and share
// one cache entry.
func (s *Server) parseRequest(req *CompileRequest) (*parsedRequest, error) {
	p := &parsedRequest{}

	// Device: inline document or registered name.
	switch {
	case len(req.Device) > 0 && req.DeviceName != "":
		return nil, fmt.Errorf("device and device_name are mutually exclusive")
	case len(req.Device) > 0:
		dev, err := device.FromJSON(req.Device)
		if err != nil {
			return nil, err
		}
		fp, err := deviceFingerprint(dev)
		if err != nil {
			return nil, err
		}
		p.dev, p.deviceID, p.devName = dev, "inline:"+fp, dev.Name
	case req.DeviceName != "":
		dev, epoch, err := s.devices.get(req.DeviceName)
		if err != nil {
			return nil, err
		}
		p.dev = dev
		p.devName = req.DeviceName
		p.deviceID = req.DeviceName + "@" + strconv.FormatInt(epoch, 10)
	default:
		return nil, fmt.Errorf("one of device or device_name is required")
	}

	// Config.
	cfg := req.Config
	p.preset = compile.PresetIC
	if cfg.Policy != "" {
		var ok bool
		p.preset, ok = presetByName(cfg.Policy)
		if !ok {
			return nil, fmt.Errorf("unknown policy %q", cfg.Policy)
		}
	}
	levels := cfg.P
	if levels == 0 {
		levels = 1
	}
	if levels < 0 || levels > maxLevels {
		return nil, fmt.Errorf("p %d outside [1,%d]", levels, maxLevels)
	}
	gamma, beta := cfg.Gamma, cfg.Beta
	if gamma == nil && beta == nil {
		gamma = make([]float64, levels)
		beta = make([]float64, levels)
		for l := 0; l < levels; l++ {
			gamma[l] = 0.8 / float64(l+1)
			beta[l] = 0.4 / float64(l+1)
		}
	}
	if len(gamma) != levels || len(beta) != levels {
		return nil, fmt.Errorf("gamma/beta lengths (%d,%d) must both equal p=%d", len(gamma), len(beta), levels)
	}
	p.seed = cfg.Seed
	if p.seed == 0 {
		p.seed = 1
	}
	if cfg.PackingLimit < 0 {
		return nil, fmt.Errorf("packing_limit %d negative", cfg.PackingLimit)
	}
	p.packing = cfg.PackingLimit
	p.optimize = cfg.Optimize
	p.emitQASM = cfg.EmitQASM
	if cfg.DeadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms %d negative", cfg.DeadlineMS)
	}
	if cfg.DeadlineMS > 0 {
		p.wait = time.Duration(cfg.DeadlineMS) * time.Millisecond
	}

	// Circuit → canonical spec.
	c := req.Circuit
	if c.N <= 0 {
		return nil, fmt.Errorf("circuit.n must be positive")
	}
	if c.N > maxQubits {
		return nil, fmt.Errorf("circuit.n %d exceeds the service limit %d", c.N, maxQubits)
	}
	if len(c.Edges) == 0 {
		return nil, fmt.Errorf("circuit.edges must be non-empty")
	}
	if c.Weights != nil && len(c.Weights) != len(c.Edges) {
		return nil, fmt.Errorf("circuit.weights has %d entries for %d edges", len(c.Weights), len(c.Edges))
	}
	type wedge struct {
		u, v int
		w    float64
	}
	canon := make([]wedge, len(c.Edges))
	for i, e := range c.Edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= c.N || u == v {
			return nil, fmt.Errorf("circuit edge (%d,%d) invalid for n=%d", e[0], e[1], c.N)
		}
		w := 1.0
		if c.Weights != nil && c.Weights[i] != 0 {
			w = c.Weights[i]
		}
		canon[i] = wedge{u, v, w}
	}
	slices.SortFunc(canon, func(a, b wedge) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	for i := 1; i < len(canon); i++ {
		if canon[i].u == canon[i-1].u && canon[i].v == canon[i-1].v {
			return nil, fmt.Errorf("duplicate circuit edge (%d,%d)", canon[i].u, canon[i].v)
		}
	}

	// The request's structure, angle-free: the skeleton tier compiles this
	// once per structure and binds gamma/beta per request; spec rebuilds
	// the concrete terms in the same order, so a bound skeleton is
	// byte-identical to the direct compile.
	p.gamma, p.beta = gamma, beta
	p.paramSpec = compile.ParamSpec{N: c.N, P: levels, Terms: make([]compile.WeightedTerm, len(canon))}
	for i, e := range canon {
		p.paramSpec.Terms[i] = compile.WeightedTerm{U: e.u, V: e.v, Weight: e.w}
	}

	p.key, p.skelKey = cacheKeys(p)
	return p, nil
}

// keyBufs pools the byte slices cache keys are built in.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// cacheKeys hashes the canonical request into its full key — graph ×
// device(+epoch) × preset × config, angles included — and, except for
// optimize requests, its skeleton-tier key: the full key's layout minus
// the optimize and angle lines, plus a marker so the two keyspaces can
// never collide. Optimize requests get no skeleton key, since their gate
// structure depends on the angles.
//
// Both hash one appended buffer laid out as
//
//	skeleton\n | dev..packing | optimize | n, p | angle lines | edge lines
//
// so the full key is one contiguous tail and the edge lines are rendered
// once for both. Numbers print as %d and %g would (strconv 'g', -1).
func cacheKeys(p *parsedRequest) (key, skelKey string) {
	kb := keyBufs.Get().(*[]byte)
	b := append((*kb)[:0], "skeleton\n"...)
	fullStart := len(b)
	b = append(b, "dev="...)
	b = append(b, p.deviceID...)
	b = append(b, "\npreset="...)
	b = append(b, p.preset.String()...)
	b = append(b, "\nseed="...)
	b = strconv.AppendInt(b, p.seed, 10)
	b = append(b, "\npacking="...)
	b = strconv.AppendInt(b, int64(p.packing), 10)
	optStart := len(b)
	b = append(b, "\noptimize="...)
	b = strconv.AppendBool(b, p.optimize)
	shapeStart := len(b)
	b = append(b, "\nn="...)
	b = strconv.AppendInt(b, int64(p.paramSpec.N), 10)
	b = append(b, "\np="...)
	b = strconv.AppendInt(b, int64(p.paramSpec.P), 10)
	b = append(b, '\n')
	anglesStart := len(b)
	for l := range p.gamma {
		b = append(b, "level="...)
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, " gamma="...)
		b = strconv.AppendFloat(b, p.gamma[l], 'g', -1, 64)
		b = append(b, " beta="...)
		b = strconv.AppendFloat(b, p.beta[l], 'g', -1, 64)
		b = append(b, '\n')
	}
	edgesStart := len(b)
	for _, t := range p.paramSpec.Terms {
		b = strconv.AppendInt(b, int64(t.U), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t.V), 10)
		b = append(b, ' ')
		if t.Weight == 1 { // the default weight, and what %g prints for it
			b = append(b, '1')
		} else {
			b = strconv.AppendFloat(b, t.Weight, 'g', -1, 64)
		}
		b = append(b, '\n')
	}

	var hexBuf [2 * sha256.Size]byte
	sum := sha256.Sum256(b[fullStart:])
	key = string(hex.AppendEncode(hexBuf[:0], sum[:]))
	if !p.optimize {
		h := sha256.New()
		h.Write(b[:optStart])
		h.Write(b[shapeStart:anglesStart])
		h.Write(b[edgesStart:])
		skelKey = string(hex.AppendEncode(hexBuf[:0], h.Sum(sum[:0])))
	}
	*kb = b
	keyBufs.Put(kb)
	return key, skelKey
}

// deviceFingerprint hashes the canonical JSON serialization of dev —
// coupling map and calibration — so an inline device with any different
// revision (one drifted error rate is enough) can never share cache
// entries with another.
func deviceFingerprint(dev *device.Device) (string, error) {
	data, err := dev.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("fingerprinting device: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// presetByName resolves a policy string case-insensitively.
func presetByName(name string) (compile.Preset, bool) {
	for _, p := range compile.Presets {
		if strings.EqualFold(p.String(), name) {
			return p, true
		}
	}
	return 0, false
}

// Request shape limits: a compile server must bound the work one document
// can demand before admission control ever sees it.
const (
	maxLevels  = 32
	maxQubits  = 1024
	maxBodyLen = 8 << 20 // 8 MiB request body cap
)
