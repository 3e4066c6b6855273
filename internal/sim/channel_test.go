package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/exp"
	"repro/internal/graphs"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// The exact-channel oracle. The byte-for-byte oracles hold the executor to
// the gate-by-gate trajectories of the same RNG stream; this one holds the
// sampled histograms to the channel the NoiseModel documents, computed
// exactly on a density matrix:
//
//   - a uniform non-identity Pauli after each 1Q gate, with probability
//     OneQubit;
//   - after a 2Q gate worth k CNOTs, k independent draws of a uniform
//     non-identity two-qubit Pauli, each with the edge's rate;
//   - independent readout flips, one rate per qubit.
//
// It shares no code with the sampler beyond the state kernels.

// densityQubits bounds the circuits the oracle takes: ρ on n qubits is a
// state of 2n.
const densityQubits = 6

var (
	pauliX = [2][2]complex128{{0, 1}, {1, 0}}
	pauliY = [2][2]complex128{{0, -1i}, {1i, 0}}
	pauliZ = [2][2]complex128{{1, 0}, {0, -1}}
	matHad = [2][2]complex128{{math.Sqrt2 / 2, math.Sqrt2 / 2}, {math.Sqrt2 / 2, -math.Sqrt2 / 2}}
)

// gateMatrix returns the matrix of 1Q gate g.
func gateMatrix(g circuit.Gate) [2][2]complex128 {
	switch g.Kind {
	case circuit.H:
		return matHad
	case circuit.X:
		return pauliX
	case circuit.Y:
		return pauliY
	case circuit.Z:
		return pauliZ
	case circuit.RX:
		return sim.MatRX(g.Params[0])
	case circuit.RY:
		return sim.MatRY(g.Params[0])
	case circuit.RZ:
		return sim.MatRZ(g.Params[0])
	case circuit.U1:
		return sim.MatU1(g.Params[0])
	case circuit.U2:
		return sim.MatU2(g.Params[0], g.Params[1])
	case circuit.U3:
		return sim.MatU3(g.Params[0], g.Params[1], g.Params[2])
	}
	panic("oracle: no 1Q matrix for " + g.Kind.String())
}

func conjMat(m [2][2]complex128) [2][2]complex128 {
	for i := range m {
		for j := range m[i] {
			m[i][j] = complex(real(m[i][j]), -imag(m[i][j]))
		}
	}
	return m
}

// density is ρ over n qubits, stored as a state of 2n qubits: ρ[i][j] at
// index i | j<<n. Then U·ρ·U† applies U to the low n qubits and its complex
// conjugate to the high n.
type density struct {
	n   int
	rho *sim.State
}

func newDensity(n int) *density {
	if n > densityQubits {
		panic("oracle: too many qubits")
	}
	return &density{n: n, rho: sim.NewState(2 * n)} // |0…0⟩⟨0…0|
}

func (d *density) apply1Q(q int, m [2][2]complex128) {
	d.rho.Apply1Q(q, m)
	d.rho.Apply1Q(q+d.n, conjMat(m))
}

// applyGate conjugates ρ by gate g.
func (d *density) applyGate(g circuit.Gate) {
	n := d.n
	switch g.Kind {
	case circuit.CNOT:
		d.rho.ApplyCNOT(g.Q0, g.Q1)
		d.rho.ApplyCNOT(g.Q0+n, g.Q1+n)
	case circuit.CZ:
		d.rho.ApplyCZ(g.Q0, g.Q1)
		d.rho.ApplyCZ(g.Q0+n, g.Q1+n)
	case circuit.Swap:
		d.rho.ApplySwap(g.Q0, g.Q1)
		d.rho.ApplySwap(g.Q0+n, g.Q1+n)
	case circuit.CPhase:
		d.rho.ApplyZZ(g.Q0, g.Q1, g.Params[0])
		d.rho.ApplyZZ(g.Q0+n, g.Q1+n, -g.Params[0])
	default:
		d.apply1Q(g.Q0, gateMatrix(g))
	}
}

// depolarize replaces ρ by (1−e)·ρ + e/(4^k−1)·Σ P·ρ·P over the 4^k−1
// non-identity Paulis P on the k given qubits.
func (d *density) depolarize(qs []int, e float64) {
	if e == 0 {
		return
	}
	paulis := [][2][2]complex128{pauliX, pauliY, pauliZ}
	terms := 1<<(2*len(qs)) - 1
	acc := make([]complex128, len(d.rho.Amp))
	for i, a := range d.rho.Amp {
		acc[i] = complex(1-e, 0) * a
	}
	w := complex(e/float64(terms), 0)
	for k := 1; k <= terms; k++ {
		term := &density{n: d.n, rho: d.rho.Clone()}
		for i, q := range qs {
			if digit := k >> (2 * i) & 3; digit > 0 {
				term.apply1Q(q, paulis[digit-1])
			}
		}
		for i, a := range term.rho.Amp {
			acc[i] += w * a
		}
	}
	copy(d.rho.Amp, acc)
}

// edgeRate is the model's per-CNOT fault rate of the edge {a, b}.
func edgeRate(nm *sim.NoiseModel, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if e, ok := nm.TwoQubit[[2]int{a, b}]; ok {
		return e
	}
	return nm.TwoQubitDefault
}

// exactNoisyDistribution returns the probability of every readout of c
// under nm, as the NoiseModel doc states the channel.
func exactNoisyDistribution(c *circuit.Circuit, nm *sim.NoiseModel) []float64 {
	n := c.NQubits
	d := newDensity(n)
	for _, g := range c.Gates {
		switch {
		case g.Kind == circuit.Barrier || g.Kind == circuit.Measure:
		case g.Arity() == 2:
			d.applyGate(g)
			for i := 0; i < circuit.NativeCNOTCost(g.Kind); i++ {
				d.depolarize([]int{g.Q0, g.Q1}, edgeRate(nm, g.Q0, g.Q1))
			}
		default:
			d.applyGate(g)
			d.depolarize([]int{g.Q0}, nm.OneQubit)
		}
	}
	p := make([]float64, 1<<n)
	for x := range p {
		p[x] = real(d.rho.Amp[x|x<<n])
	}
	if len(nm.Readout) > n {
		panic("oracle: readout rates for qubits the circuit lacks")
	}
	for q, e := range nm.Readout {
		for x := range p {
			if y := x | 1<<q; y != x {
				p[x], p[y] = (1-e)*p[x]+e*p[y], (1-e)*p[y]+e*p[x]
			}
		}
	}
	return p
}

// scaledModel returns nm with every rate multiplied by f.
func scaledModel(nm *sim.NoiseModel, f float64) *sim.NoiseModel {
	out := &sim.NoiseModel{OneQubit: nm.OneQubit * f, TwoQubitDefault: nm.TwoQubitDefault * f,
		TwoQubit: map[[2]int]float64{}}
	for k, v := range nm.TwoQubit {
		out.TwoQubit[k] = v * f
	}
	for _, e := range nm.Readout {
		out.Readout = append(out.Readout, e*f)
	}
	return out
}

func totalVariation(p, q []float64) float64 {
	var tv float64
	for x := range p {
		tv += math.Abs(p[x] - q[x])
	}
	return tv / 2
}

// channelCase is one circuit and model the oracle checks.
type channelCase struct {
	name string
	c    *circuit.Circuit
	nm   *sim.NoiseModel
	half bool // whether the executor runs it on the half register
}

// smallMaxCut returns a 5-node MaxCut instance with 7 edges, which a 2×3
// grid cannot hold without swaps.
func smallMaxCut(t *testing.T) *qaoa.Problem {
	g := graphs.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	prob, err := qaoa.NewMaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// gridModel is a noise model on the 2×3 grid with a distinct rate on every
// edge and qubit.
func gridModel(dev *device.Device) *sim.NoiseModel {
	nm := &sim.NoiseModel{OneQubit: 0.02, TwoQubit: map[[2]int]float64{}}
	for i, e := range dev.Coupling.Edges() {
		nm.TwoQubit[[2]int{e.U, e.V}] = 0.02 + 0.01*float64(i)
	}
	for q := 0; q < dev.NQubits(); q++ {
		nm.Readout = append(nm.Readout, 0.01+0.01*float64(q))
	}
	return nm
}

// compileSmall compiles prob onto the 2×3 grid at the given angles.
func compileSmall(t *testing.T, prob *qaoa.Problem, params qaoa.Params) *compile.Result {
	res, err := compile.Compile(prob, params, device.Grid(2, 3), compile.PresetIC.Options(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount == 0 {
		t.Fatal("the compiled circuit has no swaps")
	}
	return res
}

// maxCutShape builds a MaxCut-shaped circuit by hand on n qubits: H on the
// first `states`, a ring of CPhase terms among them with a swap onto the
// idle last qubit midway, and the given mixer on each; with closing set, a
// second ring follows the mixers, so the circuit ends in a diagonal
// stretch.
func maxCutShape(n, states int, mixer func(q int) circuit.Gate, closing bool) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < states; q++ {
		c.Append(circuit.NewH(q))
	}
	at := make([]int, states) // logical → physical
	for q := range at {
		at[q] = q
	}
	for i := 0; i < states; i++ {
		if i == states/2 {
			c.Append(circuit.NewSwap(at[0], n-1))
			at[0] = n - 1
		}
		c.Append(circuit.NewCPhase(at[i], at[(i+1)%states], 0.3+0.2*float64(i)))
	}
	for q := 0; q < states; q++ {
		c.Append(mixer(at[q]))
	}
	if closing {
		for i := 0; i < states; i++ {
			c.Append(circuit.NewCPhase(at[i], at[(i+1)%states], 0.5+0.2*float64(i)))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewMeasure(q))
	}
	return c
}

func channelCases(t *testing.T) []channelCase {
	generic := sim.NoisyTestCircuit(5, 2, 77)
	flat := &sim.NoiseModel{OneQubit: 0.03, TwoQubitDefault: 0.06, Readout: []float64{0.03, 0.01, 0.05, 0.02, 0.04}}
	perEdge := &sim.NoiseModel{OneQubit: 0.02, TwoQubitDefault: 0.01, Readout: flat.Readout,
		TwoQubit: map[[2]int]float64{{0, 1}: 0.12, {2, 3}: 0.03, {1, 2}: 0.08, {3, 4}: 0.05}}

	prob := smallMaxCut(t)
	dev := device.Grid(2, 3)
	p1 := compileSmall(t, prob, qaoa.Params{Gamma: []float64{0.61}, Beta: []float64{0.37}})
	p2 := compileSmall(t, prob, qaoa.Params{Gamma: []float64{0.61, 0.83}, Beta: []float64{0.37, 0.22}})

	hand := &sim.NoiseModel{OneQubit: 0.03, TwoQubitDefault: 0.04, Readout: []float64{0.02, 0.03, 0.01, 0.04, 0.02, 0.05}}
	rx := func(q int) circuit.Gate { return circuit.NewRX(q, 0.7) }
	ry := func(q int) circuit.Gate { return circuit.NewRY(q, 0.7) }
	return []channelCase{
		{"CNOT and CZ fallback", generic, flat, false},
		{"per-edge rates", generic, perEdge, false},
		{"compiled p=1, swaps, idle qubit", p1.Circuit, gridModel(dev), true},
		{"compiled p=2", p2.Circuit, gridModel(dev), true},
		{"MaxCut shape with RX mixer", maxCutShape(6, 5, rx, false), hand, true},
		{"closing diagonal stretch", maxCutShape(6, 5, rx, true), hand, true},
		{"RY mixer falls back", maxCutShape(6, 5, ry, false), hand, false},
	}
}

// TestSampleNoisyMatchesExactChannel: SampleNoisy's histogram lies within a
// total-variation bound of the exact noisy distribution, at 1 and 4 shots
// per trajectory, on circuits that take every path of the executor. Each
// trajectory's k shots contribute a count of variance at most k·p(x) per
// outcome, so over T trajectories E|p̂(x) − p(x)| ≤ √(p(x)/T) and
// E[TV] ≤ ½·Σ√(p(x)/T); the bound is twice that. Halving every rate must
// move the exact distribution by more than twice the bound, so the test
// can tell a sampler that draws too few faults or flips.
func TestSampleNoisyMatchesExactChannel(t *testing.T) {
	const trajectories, chunk = 1 << 16, 1024
	for ci, tc := range channelCases(t) {
		ex := sim.NewExecutor(tc.c)
		if got := sim.HalfRegister(ex); got != tc.half {
			t.Fatalf("%s: half register %v, want %v", tc.name, got, tc.half)
		}
		exact := exactNoisyDistribution(tc.c, tc.nm)
		var bound float64
		for _, p := range exact {
			bound += math.Sqrt(p / trajectories)
		}
		if d := totalVariation(exact, exactNoisyDistribution(tc.c, scaledModel(tc.nm, 0.5))); d < 2*bound {
			t.Fatalf("%s: halving the rates moves the distribution by %.4f, under twice the bound %.4f", tc.name, d, bound)
		}
		for _, per := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(100*ci + per)))
			hist := make([]float64, len(exact))
			for done := 0; done < trajectories; done += chunk {
				for _, y := range ex.SampleNoisy(tc.nm, per*chunk, chunk, rng) {
					if y >= uint64(len(hist)) {
						t.Fatalf("%s: sample %#x outside the %d-qubit register", tc.name, y, tc.c.NQubits)
					}
					hist[y]++
				}
			}
			for x := range hist {
				hist[x] /= float64(per * trajectories)
			}
			tv := totalVariation(exact, hist)
			t.Logf("%s, %d shots per trajectory: TV %.4f, bound %.4f", tc.name, per, tv, bound)
			if tv > bound {
				t.Errorf("%s, %d shots per trajectory: TV %.4f from the exact channel, bound %.4f", tc.name, per, tv, bound)
			}
		}
	}
}

// TestMeasureARGMatchesExactChannel: MeasureARG, averaged over many calls,
// agrees with the ARG of the exact noisy and noiseless ⟨C⟩ within five
// standard errors. A call's noisy mean over T trajectories has variance at
// most σ²/T, with σ² the cut's variance under the noisy channel, and its
// noiseless mean σ0²/shots.
func TestMeasureARGMatchesExactChannel(t *testing.T) {
	const calls, shots, trajectories = 64, 4096, 256
	prob := smallMaxCut(t)
	res := compileSmall(t, prob, qaoa.Params{Gamma: []float64{0.61}, Beta: []float64{0.37}})
	nm := gridModel(device.Grid(2, 3))
	moments := func(p []float64) (mean, variance float64) {
		var s, sq float64
		for y, py := range p {
			r := prob.Cost(res.ExtractLogical(uint64(y))) / float64(prob.MaxCut)
			s += py * r
			sq += py * r * r
		}
		return s, sq - s*s
	}
	rh, vh := moments(exactNoisyDistribution(res.Circuit, nm))
	r0, v0 := moments(exactNoisyDistribution(res.Circuit, &sim.NoiseModel{}))
	want := qaoa.ARG(r0, rh)

	var sum float64
	for i := 0; i < calls; i++ {
		arg, err := exp.MeasureARG(prob, res, nm, shots, trajectories, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		sum += arg
	}
	got := sum / calls
	seH := math.Sqrt(vh / (calls * trajectories))
	se0 := math.Sqrt(v0 / (calls * shots))
	se := 100 * rh / r0 * math.Hypot(seH/rh, se0/r0)
	t.Logf("ARG %.3f over %d calls, exact %.3f (r0 %.4f, rh %.4f), standard error %.3f", got, calls, want, r0, rh, se)
	if math.Abs(got-want) > 5*se {
		t.Fatalf("mean ARG %.3f, exact %.3f: beyond 5 standard errors of %.3f", got, want, se)
	}
}
