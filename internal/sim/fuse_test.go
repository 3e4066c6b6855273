package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// randCircuit samples a circuit over the full simulable gate set (plus
// no-op barriers and measures) — the property-test workload for fusion.
func randCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		p := rng.Intn(n - 1)
		if p >= q {
			p++
		}
		th := (rng.Float64() - 0.5) * 4 * math.Pi
		ph := (rng.Float64() - 0.5) * 4 * math.Pi
		la := (rng.Float64() - 0.5) * 4 * math.Pi
		switch rng.Intn(16) {
		case 0:
			c.Append(circuit.NewH(q))
		case 1:
			c.Append(circuit.NewX(q))
		case 2:
			c.Append(circuit.NewY(q))
		case 3:
			c.Append(circuit.NewZ(q))
		case 4:
			c.Append(circuit.NewRX(q, th))
		case 5:
			c.Append(circuit.NewRY(q, th))
		case 6:
			c.Append(circuit.NewRZ(q, th))
		case 7:
			c.Append(circuit.NewU1(q, la))
		case 8:
			c.Append(circuit.NewU2(q, ph, la))
		case 9:
			c.Append(circuit.NewU3(q, th, ph, la))
		case 10:
			c.Append(circuit.NewCNOT(q, p))
		case 11:
			c.Append(circuit.NewCZ(q, p))
		case 12:
			c.Append(circuit.NewCPhase(q, p, th))
		case 13:
			c.Append(circuit.NewSwap(q, p))
		case 14:
			c.Append(circuit.Gate{Kind: circuit.Barrier, Q0: -1, Q1: -1})
		case 15:
			c.Append(circuit.NewMeasure(q))
		}
	}
	return c
}

// randDiagHeavy samples a circuit dominated by diagonal gates with sparse
// non-diagonal interruptions — the shape that exercises diagonal-run
// coalescing and its order-preservation bookkeeping hardest.
func randDiagHeavy(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		p := rng.Intn(n - 1)
		if p >= q {
			p++
		}
		th := (rng.Float64() - 0.5) * 4 * math.Pi
		switch rng.Intn(12) {
		case 0:
			c.Append(circuit.NewZ(q))
		case 1, 2:
			c.Append(circuit.NewRZ(q, th))
		case 3, 4:
			c.Append(circuit.NewU1(q, th))
		case 5, 6:
			c.Append(circuit.NewCZ(q, p))
		case 7, 8, 9:
			c.Append(circuit.NewCPhase(q, p, th))
		case 10:
			c.Append(circuit.NewH(q))
		case 11:
			c.Append(circuit.NewCNOT(q, p))
		}
	}
	return c
}

// referenceRun applies every gate in order with the unfused per-gate
// kernels — the semantics Fuse must preserve.
func referenceRun(c *circuit.Circuit) *State {
	s := NewState(c.NQubits)
	for _, g := range c.Gates {
		s.ApplyGate(g)
	}
	return s
}

func maxAmpDiff(a, b *State) float64 {
	worst := 0.0
	for i := range a.Amp {
		if d := cAbs(a.Amp[i] - b.Amp[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func cAbs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// termBitsError reports a diagonal term whose mask has other than one or
// two bits: applyDiag has a kernel for those two shapes only.
func termBitsError(terms []diagTerm) error {
	for _, t := range terms {
		if n := bits.OnesCount64(t.mask); n != 1 && n != 2 {
			return fmt.Errorf("diagonal term with mask %#b has %d bits, want 1 or 2", t.mask, n)
		}
	}
	return nil
}

// programTermBitsError applies termBitsError to every diagonal op of p.
func programTermBitsError(p *Program) error {
	for i, op := range p.ops {
		if op.kind != opDiag {
			continue
		}
		if err := termBitsError(op.terms); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// assertTermBits checks the term masks of c's fused program and of the
// executor's compacted one.
func assertTermBits(t *testing.T, what string, c *circuit.Circuit) {
	t.Helper()
	if err := programTermBitsError(Fuse(c)); err != nil {
		t.Fatalf("%s: fused program: %v", what, err)
	}
	if err := programTermBitsError(NewExecutor(c).prog); err != nil {
		t.Fatalf("%s: compacted program: %v", what, err)
	}
}

func TestFuseMatchesReferenceRandomCircuits(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 2 + rng.Intn(5)
		c := randCircuit(rng, n, 30+rng.Intn(120))
		assertTermBits(t, fmt.Sprintf("trial %d", trial), c)
		want := referenceRun(c)
		got := Fuse(c).RunOn(NewState(n))
		if d := maxAmpDiff(want, got); d > 1e-12 {
			t.Fatalf("trial %d (n=%d, %d gates): fused state deviates by %g", trial, n, c.Len(), d)
		}
	}
}

func TestFuseMatchesReferenceDiagonalHeavy(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		n := 2 + rng.Intn(5)
		c := randDiagHeavy(rng, n, 40+rng.Intn(160))
		assertTermBits(t, fmt.Sprintf("trial %d", trial), c)
		want := referenceRun(c)
		got := Fuse(c).RunOn(NewState(n))
		if d := maxAmpDiff(want, got); d > 1e-12 {
			t.Fatalf("trial %d (n=%d, %d gates): fused state deviates by %g", trial, n, c.Len(), d)
		}
	}
}

// TestFuseOrderPreservation pins the tricky interleavings by hand: folds
// must never commute a gate past an op on a shared qubit.
func TestFuseOrderPreservation(t *testing.T) {
	c := circuit.New(3)
	c.Append(
		circuit.NewRZ(0, 0.3),
		circuit.NewCNOT(0, 1),
		circuit.NewRZ(0, 0.5), // must NOT merge with the first RZ across the CNOT
		circuit.NewH(1),
		circuit.NewCZ(1, 2), // must NOT fold into the pre-H diagonal run
		circuit.NewZ(1),     // folds into the H matrix? no — scales it (diag after matrix)
		circuit.NewH(1),     // must multiply into the scaled matrix only if still open
		circuit.NewCPhase(0, 2, 1.1),
		circuit.NewSwap(0, 2),
		circuit.NewU1(2, 0.7),
	)
	want := referenceRun(c)
	got := Fuse(c).RunOn(NewState(3))
	if d := maxAmpDiff(want, got); d > 1e-12 {
		t.Fatalf("fused state deviates by %g", d)
	}
}

// TestFuseShrinksQAOALayer asserts the fusion win on the workload the pass
// exists for: a QAOA layer's cost phases coalesce into a handful of sweeps.
func TestFuseShrinksQAOALayer(t *testing.T) {
	n := 8
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u+v)%2 == 0 {
				c.Append(circuit.NewCPhase(u, v, 0.4))
			}
		}
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewRX(q, 0.9))
	}
	p := Fuse(c)
	if p.Gates() != c.Len() {
		t.Fatalf("Gates() = %d, want %d", p.Gates(), c.Len())
	}
	// n H ops + 1 diagonal sweep + n RX ops.
	if want := 2*n + 1; p.Ops() != want {
		t.Fatalf("Ops() = %d, want %d (all CPhase gates in one sweep)", p.Ops(), want)
	}
	want := referenceRun(c)
	got := p.RunOn(NewState(n))
	if d := maxAmpDiff(want, got); d > 1e-12 {
		t.Fatalf("fused state deviates by %g", d)
	}
}

// TestFuse1QChainsCollapse: consecutive 1Q gates on one qubit become one op.
func TestFuse1QChainsCollapse(t *testing.T) {
	c := circuit.New(2)
	c.Append(
		circuit.NewH(0), circuit.NewRZ(0, 0.2), circuit.NewRX(0, 0.3),
		circuit.NewU3(0, 0.1, 0.2, 0.3), circuit.NewZ(0),
	)
	p := Fuse(c)
	if p.Ops() != 1 {
		t.Fatalf("Ops() = %d, want 1", p.Ops())
	}
	want := referenceRun(c)
	got := p.RunOn(NewState(2))
	if d := maxAmpDiff(want, got); d > 1e-12 {
		t.Fatalf("fused state deviates by %g", d)
	}
}

func TestRunUsesFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randCircuit(rng, 5, 200)
	want := referenceRun(c)
	got := NewState(5).Run(c)
	if d := maxAmpDiff(want, got); d > 1e-12 {
		t.Fatalf("Run deviates from reference by %g", d)
	}
}

func BenchmarkFuse(b *testing.B) {
	c := qaoaLayerCircuit(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fuse(c)
	}
}

func ExampleProgram() {
	c := circuit.New(2)
	c.Append(circuit.NewH(0), circuit.NewH(1), circuit.NewCPhase(0, 1, 0.8), circuit.NewRZ(0, 0.1), circuit.NewRZ(1, 0.2))
	p := Fuse(c)
	fmt.Println(p.Gates(), p.Ops())
	// Output: 5 3
}

// TestProgramRunOnZeroAlloc: executing a fused program on a reused state
// allocates nothing. The two circuits reach apply, applyDiag, applyTerm1,
// applyTerm2, Apply1Q on all three matrix shapes (apply1QReal,
// apply1QCross and the generic loop), ApplyCNOT, ApplySwap, expand2 and
// sortBits; an executor's run over its half register reaches apply1QTop
// on all three shapes, register and mirror.
func TestProgramRunOnZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"qaoa layer", qaoaLayerCircuit(10)},
		{"compiled style", compiledStyleCircuit(10, 300)},
	} {
		p := Fuse(tc.c)
		s := NewState(10)
		allocs := testing.AllocsPerRun(20, func() { p.RunOn(s) })
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", tc.name, allocs)
		}
	}
	// An executor's run over its half register: apply1QTop's three kernels,
	// the folded 1-bit terms, and the mirror into the upper half.
	ex := NewExecutor(halfKernelCircuit(10))
	if !ex.half {
		t.Fatal("halfKernelCircuit did not take the half register")
	}
	s := NewState(10)
	allocs := testing.AllocsPerRun(20, func() {
		ex.run(s, 0, len(ex.prog.ops))
		mirror(s.Amp)
	})
	if allocs != 0 {
		t.Errorf("half register: %.1f allocations per run, want 0", allocs)
	}
}
