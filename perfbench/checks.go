package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// The output checks take their reference from the problem and the device,
// never from compiler output: a CPhase lowers to two CNOTs and a SWAP to
// three, so with peephole optimization off a circuit for a graph with |E|
// edges at p levels routed with s SWAPs has exactly 2·|E|·p + 3·s CNOTs,
// each on a coupled pair of the device.

// checkNative checks a native {U1,U2,U3,CNOT} circuit.
func checkNative(native *circuit.Circuit, dev *device.Device, edges, p, swaps int) error {
	cx := 0
	for _, g := range native.Gates {
		if g.Arity() != 2 {
			continue
		}
		if g.Kind != circuit.CNOT {
			return fmt.Errorf("native circuit holds a %s gate", g.Kind)
		}
		if !dev.Connected(g.Q0, g.Q1) {
			return fmt.Errorf("CNOT on uncoupled pair (%d,%d) of %s", g.Q0, g.Q1, dev.Name)
		}
		cx++
	}
	if want := 2*edges*p + 3*swaps; cx != want {
		return fmt.Errorf("%d CNOTs, want 2·%d·%d + 3·%d = %d", cx, edges, p, swaps, want)
	}
	return nil
}

// checkCircuitText checks the high-level circuit a qaoad response carries
// as text, one gate per line: |E|·p ZZ gates and the reported number of
// SWAPs, all on coupled pairs, which is the same CNOT count once lowered.
func checkCircuitText(text string, dev *device.Device, edges, p, swaps int) error {
	zz, sw := 0, 0
	for _, line := range strings.Split(text, "\n") {
		i := strings.Index(line, " q[")
		if i < 0 || !strings.Contains(line, "],q[") {
			continue
		}
		kind := line[:i]
		if j := strings.IndexByte(kind, '('); j >= 0 {
			kind = kind[:j]
		}
		var a, b int
		if _, err := fmt.Sscanf(strings.TrimSuffix(line[i+1:], ";"), "q[%d],q[%d]", &a, &b); err != nil {
			return fmt.Errorf("unparsable gate %q: %v", line, err)
		}
		if !dev.Connected(a, b) {
			return fmt.Errorf("%s on uncoupled pair (%d,%d) of %s", kind, a, b, dev.Name)
		}
		switch kind {
		case "zz":
			zz++
		case "swap":
			sw++
		default:
			return fmt.Errorf("unexpected two-qubit gate %q", kind)
		}
	}
	if zz != edges*p || sw != swaps {
		return fmt.Errorf("%d ZZ and %d SWAP gates, want %d and %d", zz, sw, edges*p, swaps)
	}
	return nil
}

// exactRatio is the exact logical ⟨C⟩ at params over the MaxCut optimum.
func exactRatio(prob *qaoa.Problem, params qaoa.Params) (float64, error) {
	e, err := qaoa.Expectation(prob, params)
	if err != nil {
		return 0, err
	}
	return e / float64(prob.MaxCut), nil
}

// checkIdealRatio reproduces the noiseless approximation ratio r0 that
// exp.MeasureARG draws first from an rng seeded with measureSeed, and
// checks it against the exact ratio within five standard errors.
func checkIdealRatio(prob *qaoa.Problem, res *compile.Result, measureSeed int64, shots int, exact float64) error {
	samples := sim.NewExecutor(res.Circuit).SampleIdeal(rand.New(rand.NewSource(measureSeed)), shots)
	var sum, sq float64
	for _, y := range samples {
		r := prob.Cost(res.ExtractLogical(y)) / float64(prob.MaxCut)
		sum += r
		sq += r * r
	}
	n := float64(len(samples))
	r0 := sum / n
	se := math.Sqrt(math.Max(sq/n-r0*r0, 0) / n)
	if math.Abs(r0-exact) > 5*se+1e-9 {
		return fmt.Errorf("ideal ratio r0 %.4f, exact %.4f, beyond 5 standard errors of %.4f", r0, exact, se)
	}
	return nil
}
