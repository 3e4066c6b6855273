package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

// qaoaLayerCircuit builds an uncompiled p=1 QAOA-shaped circuit over n
// qubits: H wall, a ring+chord CPhase cost layer, and an RX mixer — the
// diagonal-run-dominated shape the fusion pre-pass targets.
func qaoaLayerCircuit(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewCPhase(q, (q+1)%n, 0.7))
		if o := (q + 3) % n; o != q {
			c.Append(circuit.NewCPhase(q, o, 0.7))
		}
	}
	for q := 0; q < n; q++ {
		c.Append(circuit.NewRX(q, 0.4))
	}
	return c
}

// compiledStyleCircuit mimics a routed physical circuit: 1Q gate runs,
// CNOT/CZ/Swap interleavings, RZ chains — the native-gate shape MeasureARG
// executes.
func compiledStyleCircuit(n, gates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(42))
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.Append(circuit.NewU2(rng.Intn(n), 0.3, 0.9))
		case 1:
			c.Append(circuit.NewRZ(rng.Intn(n), 0.5))
		case 2:
			a, b := twoDistinct(n, rng)
			c.Append(circuit.NewCNOT(a, b))
		case 3:
			a, b := twoDistinct(n, rng)
			c.Append(circuit.NewCZ(a, b))
		case 4:
			a, b := twoDistinct(n, rng)
			c.Append(circuit.NewSwap(a, b))
		default:
			a, b := twoDistinct(n, rng)
			c.Append(circuit.NewCPhase(a, b, 0.7))
		}
	}
	return c
}

// BenchmarkSampleNoisyIdleQubits measures one hybrid-loop evaluation's
// noisy sampling under melbourne noise — a fresh executor, 1024 shots over
// 16 trajectories — on a compiled-QAOA-shaped circuit that leaves 3 of 15
// qubits idle, so the executor evolves a 12-slot register. Iteration i
// seeds its draws with i, so the fault plans change from one evaluation to
// the next.
func BenchmarkSampleNoisyIdleQubits(b *testing.B) {
	c := idleTestCircuit(15, []int{0, 1, 3, 4, 5, 6, 8, 9, 10, 12, 13, 14}, 1)
	nm := NoiseFromDevice(device.Melbourne15())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleNoisy(c, nm, 1024, 16, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkRunQAOALayer measures ideal execution of the QAOA-shaped circuit
// (16 qubits, serial path).
func BenchmarkRunQAOALayer(b *testing.B) {
	c := qaoaLayerCircuit(16)
	s := NewState(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Run(c)
	}
}

// BenchmarkRunQAOALayer20 measures the same circuit on 20 qubits, where the
// register no longer fits in cache: the large-register path of the serial
// kernels.
func BenchmarkRunQAOALayer20(b *testing.B) {
	c := qaoaLayerCircuit(20)
	s := NewState(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Run(c)
	}
}

// BenchmarkRunCompiledStyle measures ideal execution of a routed-flavor
// circuit (15 qubits, 300 gates — the melbourne ARG scale).
func BenchmarkRunCompiledStyle(b *testing.B) {
	c := compiledStyleCircuit(15, 300)
	s := NewState(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Run(c)
	}
}

func benchApply2Q(b *testing.B, apply func(s *State, a, t int)) {
	s := NewState(16)
	for q := 0; q < 16; q++ {
		s.Apply1Q(q, matH)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(s, i%16, (i+5)%16)
	}
}

func BenchmarkApplyCNOT(b *testing.B) {
	benchApply2Q(b, func(s *State, a, t int) {
		if a == t {
			t = (t + 1) % 16
		}
		s.ApplyCNOT(a, t)
	})
}

func BenchmarkApplySwap(b *testing.B) {
	benchApply2Q(b, func(s *State, a, t int) {
		if a == t {
			t = (t + 1) % 16
		}
		s.ApplySwap(a, t)
	})
}

// BenchmarkApply1QLarge measures the serial 1Q kernel on a 20-qubit state,
// where the register no longer fits in cache.
func BenchmarkApply1QLarge(b *testing.B) {
	s := NewState(20)
	s.Apply1Q(0, matH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply1Q(i%20, matH)
	}
}

// BenchmarkSampleShots measures drawing 512 shots from a 15-qubit state
// (CDF build + binary searches), the per-trajectory sampling cost.
func BenchmarkSampleShots(b *testing.B) {
	s := NewState(15)
	for q := 0; q < 15; q++ {
		s.Apply1Q(q, matH)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng, 512)
	}
}

// BenchmarkExpectationDiagonal measures the diagonal-observable sweep with a
// nontrivial per-basis-state cost function.
func BenchmarkExpectationDiagonal(b *testing.B) {
	s := NewState(16)
	for q := 0; q < 16; q++ {
		s.Apply1Q(q, matH)
	}
	f := func(x uint64) float64 {
		var v float64
		for k := 0; k < 16; k++ {
			if x&(1<<uint(k)) != 0 {
				v += math.Sqrt(float64(k + 1))
			}
		}
		return v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ExpectationDiagonal(f)
	}
}
