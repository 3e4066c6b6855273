package dag

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/sim"
)

func TestCommuteDisjoint(t *testing.T) {
	if !Commute(circuit.NewH(0), circuit.NewCNOT(1, 2)) {
		t.Error("disjoint gates must commute")
	}
}

func TestCommuteDiagonal(t *testing.T) {
	pairs := [][2]circuit.Gate{
		{circuit.NewCPhase(0, 1, 0.3), circuit.NewCPhase(1, 2, 0.5)},
		{circuit.NewCZ(0, 1), circuit.NewRZ(0, 0.4)},
		{circuit.NewZ(2), circuit.NewCPhase(2, 3, 0.1)},
		{circuit.NewU1(1, 0.2), circuit.NewZ(1)},
	}
	for _, p := range pairs {
		if !Commute(p[0], p[1]) || !Commute(p[1], p[0]) {
			t.Errorf("diagonal gates %v and %v must commute", p[0], p[1])
		}
	}
}

func TestCommuteCNOTRules(t *testing.T) {
	cases := []struct {
		a, b circuit.Gate
		want bool
	}{
		{circuit.NewCNOT(0, 1), circuit.NewRZ(0, 0.3), true},       // diag on control
		{circuit.NewCNOT(0, 1), circuit.NewRZ(1, 0.3), false},      // diag on target
		{circuit.NewCNOT(0, 1), circuit.NewRX(1, 0.3), true},       // X on target
		{circuit.NewCNOT(0, 1), circuit.NewRX(0, 0.3), false},      // X on control
		{circuit.NewCNOT(0, 1), circuit.NewCNOT(0, 2), true},       // shared control
		{circuit.NewCNOT(0, 2), circuit.NewCNOT(1, 2), true},       // shared target
		{circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 2), false},      // crossed
		{circuit.NewCNOT(0, 1), circuit.NewCNOT(1, 0), false},      // crossed both
		{circuit.NewCNOT(0, 1), circuit.NewCPhase(0, 2, 1), true},  // ZZ off target
		{circuit.NewCNOT(0, 1), circuit.NewCPhase(1, 2, 1), false}, // ZZ on target
		{circuit.NewCNOT(0, 1), circuit.NewH(0), false},
	}
	for _, tc := range cases {
		if got := Commute(tc.a, tc.b); got != tc.want {
			t.Errorf("Commute(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := Commute(tc.b, tc.a); got != tc.want {
			t.Errorf("Commute(%v, %v) = %v, want %v (symmetric)", tc.b, tc.a, got, tc.want)
		}
	}
}

func TestCommuteSameAxisRotations(t *testing.T) {
	if !Commute(circuit.NewRX(0, 0.3), circuit.NewRX(0, 0.8)) {
		t.Error("RX·RX on the same qubit must commute")
	}
	if !Commute(circuit.NewRY(1, 0.3), circuit.NewY(1)) {
		t.Error("RY·Y must commute")
	}
	if Commute(circuit.NewRX(0, 0.3), circuit.NewRY(0, 0.8)) {
		t.Error("RX·RY must not commute")
	}
}

// Property: whenever Commute says true, exchanging the two gates leaves the
// unitary unchanged — verified against the simulator on random states.
func TestCommuteSoundness(t *testing.T) {
	gens := []func(rng *rand.Rand, n int) circuit.Gate{
		func(r *rand.Rand, n int) circuit.Gate { return circuit.NewH(r.Intn(n)) },
		func(r *rand.Rand, n int) circuit.Gate { return circuit.NewX(r.Intn(n)) },
		func(r *rand.Rand, n int) circuit.Gate { return circuit.NewZ(r.Intn(n)) },
		func(r *rand.Rand, n int) circuit.Gate { return circuit.NewRX(r.Intn(n), r.Float64()*3) },
		func(r *rand.Rand, n int) circuit.Gate { return circuit.NewRZ(r.Intn(n), r.Float64()*3) },
		func(r *rand.Rand, n int) circuit.Gate {
			a, b := two(n, r)
			return circuit.NewCNOT(a, b)
		},
		func(r *rand.Rand, n int) circuit.Gate {
			a, b := two(n, r)
			return circuit.NewCPhase(a, b, r.Float64()*3)
		},
		func(r *rand.Rand, n int) circuit.Gate {
			a, b := two(n, r)
			return circuit.NewCZ(a, b)
		},
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		a := gens[rng.Intn(len(gens))](rng, n)
		b := gens[rng.Intn(len(gens))](rng, n)
		if !Commute(a, b) {
			return true // only soundness is claimed
		}
		s1 := sim.RandomState(n, rng)
		s2 := s1.Clone()
		s1.Run(circuit.New(n).Append(a, b))
		s2.Run(circuit.New(n).Append(b, a))
		for i := range s1.Amp {
			if cmplx.Abs(s1.Amp[i]-s2.Amp[i]) > 1e-9 {
				t.Logf("claimed commuting pair %v, %v does not commute", a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func two(n int, r *rand.Rand) (int, int) {
	a := r.Intn(n)
	b := r.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// The headline capability: a randomly ordered K4 cost layer has naive ASAP
// depth 6 but commutation-aware depth 3 (3 perfect matchings of K4).
func TestDAGDepthExploitsCommutation(t *testing.T) {
	c := circuit.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}, {0, 3}} {
		c.Append(circuit.NewCPhase(e[0], e[1], 0.5))
	}
	naive := c.Depth()
	aware := New(c).Depth()
	if naive <= 3 {
		t.Fatalf("test setup: naive depth %d unexpectedly low", naive)
	}
	if aware != 3 {
		t.Errorf("commutation-aware depth = %d, want 3", aware)
	}
}

func TestDAGLayersValid(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		c := circuit.New(n)
		for i := 0; i < 20; i++ {
			switch rng.Intn(3) {
			case 0:
				c.Append(circuit.NewH(rng.Intn(n)))
			case 1:
				a, b := two(n, rng)
				c.Append(circuit.NewCPhase(a, b, 0.4))
			default:
				a, b := two(n, rng)
				c.Append(circuit.NewCNOT(a, b))
			}
		}
		d := New(c)
		layers := d.Layers()
		// Each layer must not double-book qubits; every gate appears once.
		total := 0
		for _, layer := range layers {
			used := map[int]bool{}
			for _, gi := range layer {
				total++
				for _, q := range c.Gates[gi].Qubits() {
					if used[q] {
						return false
					}
					used[q] = true
				}
			}
		}
		if total != c.Len() {
			return false
		}
		// The relaxed depth can never exceed the naive ASAP depth.
		return len(layers) <= c.Depth()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDAGBarrier(t *testing.T) {
	c := circuit.New(2).Append(circuit.NewCPhase(0, 1, 0.3))
	c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.Barrier})
	c.Append(circuit.NewCPhase(0, 1, 0.5))
	d := New(c)
	if got := d.Depth(); got != 2 {
		t.Errorf("barrier-separated commuting gates scheduled at depth %d, want 2", got)
	}
}

// CommutingGroups must recover the cost blocks of a QAOA circuit.
func TestCommutingGroupsQAOA(t *testing.T) {
	// H layer, 4 commuting CPhases, RX layer, 4 commuting CPhases.
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.Append(circuit.NewH(q))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		c.Append(circuit.NewCPhase(e[0], e[1], 0.5))
	}
	for q := 0; q < 4; q++ {
		c.Append(circuit.NewRX(q, 0.4))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		c.Append(circuit.NewCPhase(e[0], e[1], 0.7))
	}
	groups := New(c).CommutingGroups()
	// Expect at least the two 4-gate CPhase blocks among the groups.
	blocks := 0
	for _, g := range groups {
		if len(g) >= 4 {
			allCPhase := true
			for _, gi := range g {
				if c.Gates[gi].Kind != circuit.CPhase {
					allCPhase = false
				}
			}
			if allCPhase {
				blocks++
			}
		}
	}
	if blocks != 2 {
		t.Errorf("recovered %d CPhase blocks, want 2 (groups: %v)", blocks, groups)
	}
}

// Reordering within a commuting group must preserve the circuit unitary.
func TestCommutingGroupsReorderSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 5
	c := circuit.New(n)
	for q := 0; q < n; q++ {
		c.Append(circuit.NewH(q))
	}
	for i := 0; i < 8; i++ {
		a, b := two(n, rng)
		c.Append(circuit.NewCPhase(a, b, rng.Float64()))
	}
	groups := New(c).CommutingGroups()
	if len(groups) == 0 {
		t.Fatal("no commuting groups found")
	}
	// Shuffle the largest group in place.
	var big []int
	for _, g := range groups {
		if len(g) > len(big) {
			big = g
		}
	}
	shuffled := c.Clone()
	perm := rng.Perm(len(big))
	for k, p := range perm {
		shuffled.Gates[big[k]] = c.Gates[big[p]]
	}
	a := sim.NewState(n).Run(c)
	b := sim.NewState(n).Run(shuffled)
	if f := sim.FidelityOverlap(a, b); math.Abs(f-1) > 1e-9 {
		t.Errorf("reordered commuting group changed the state (overlap %v)", f)
	}
}
