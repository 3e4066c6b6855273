package router

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
)

func TestOptimalSwapsKnownCases(t *testing.T) {
	line := device.Linear(4)
	cases := []struct {
		name  string
		dev   *device.Device
		gates [][2]int
		want  int
	}{
		{"already adjacent", line, [][2]int{{0, 1}}, 0},
		{"distance 2 on line", line, [][2]int{{0, 2}}, 1},
		{"distance 3 on line", line, [][2]int{{0, 3}}, 2},
		{"two adjacent gates", line, [][2]int{{0, 1}, {2, 3}}, 0},
		{"no gates", line, nil, 0},
		{"ring shortcut", device.Ring(4), [][2]int{{0, 2}}, 1},
	}
	for _, tc := range cases {
		init := TrivialLayout(tc.dev.NQubits(), tc.dev.NQubits())
		got, err := optimalSwaps(tc.gates, tc.dev, init)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: optimalSwaps = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestOptimalSwapsSharedQubitPair(t *testing.T) {
	// On a line 0-1-2-3 with trivial layout, gates (0,3) and (1,2): (1,2)
	// executes free; one swap (e.g. 1↔2 region movement) progresses (0,3):
	// exact answer is 2 swaps for (0,3) alone, and (1,2) must execute
	// before its endpoints scatter — BFS finds the joint optimum.
	dev := device.Linear(4)
	init := TrivialLayout(4, 4)
	got, err := optimalSwaps([][2]int{{0, 3}, {1, 2}}, dev, init)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("joint optimum = %d, want 2", got)
	}
}

func TestOptimalSwapsLimits(t *testing.T) {
	if _, err := optimalSwaps(nil, device.Linear(9), TrivialLayout(9, 9)); err == nil {
		t.Error("oversized device accepted")
	}
	big := make([][2]int, 13)
	for i := range big {
		big[i] = [2]int{0, 1}
	}
	if _, err := optimalSwaps(big, device.Linear(4), TrivialLayout(4, 4)); err == nil {
		t.Error("too many gates accepted")
	}
	if _, err := optimalSwaps([][2]int{{0, 0}}, device.Linear(4), TrivialLayout(4, 4)); err == nil {
		t.Error("self-gate accepted")
	}
	if _, err := optimalSwaps([][2]int{{0, 1}}, device.Linear(4), nil); err == nil {
		t.Error("nil layout accepted")
	}
}

// Property: the heuristic router never beats the exact optimum, and stays
// within a small additive factor of it on tiny instances.
func TestHeuristicNearOptimal(t *testing.T) {
	devices := []func() *device.Device{
		func() *device.Device { return device.Linear(5) },
		func() *device.Device { return device.Ring(6) },
		func() *device.Device { return device.Grid(2, 3) },
	}
	var worstGap int
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := devices[rng.Intn(len(devices))]()
		n := dev.NQubits()
		// A single layer of disjoint gates (matching optimalSwaps's
		// unordered-set semantics).
		perm := rng.Perm(n)
		var gates [][2]int
		for i := 0; i+1 < len(perm) && len(gates) < 2; i += 2 {
			gates = append(gates, [2]int{perm[i], perm[i+1]})
		}
		init := TrivialLayout(n, n)
		opt, err := optimalSwaps(gates, dev, init)
		if err != nil {
			return false
		}
		c := circuit.New(n)
		for _, g := range gates {
			c.Append(circuit.NewCPhase(g[0], g[1], 0.5))
		}
		res, err := New(dev).Route(c, init.Clone())
		if err != nil {
			return false
		}
		if res.SwapCount < opt {
			t.Errorf("heuristic %d swaps beat optimum %d (seed %d)", res.SwapCount, opt, seed)
			return false
		}
		if gap := res.SwapCount - opt; gap > worstGap {
			worstGap = gap
		}
		return res.SwapCount <= opt+3
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	t.Logf("worst heuristic-vs-optimal gap: %d swaps", worstGap)
}

// optimalSwaps computes the exact minimum number of SWAPs needed to execute
// every gate in gates — an unordered set of logical qubit pairs, execution
// being free once a pair sits on a coupling edge — starting from the given
// layout. It searches breadth-first over (layout, executed-set) states, so
// it is exponential and intentionally restricted to tiny instances; its
// role is to bound how far the heuristic router strays from optimal (the
// "reasoning engine" approach of §III, usable only at toy scale).
func optimalSwaps(gates [][2]int, dev *device.Device, initial *Layout) (int, error) {
	const (
		maxPhysical = 8
		maxGates    = 12
		maxStates   = 2_000_000
	)
	if dev.NQubits() > maxPhysical {
		return 0, fmt.Errorf("router: optimal search limited to %d physical qubits, device has %d", maxPhysical, dev.NQubits())
	}
	if len(gates) > maxGates {
		return 0, fmt.Errorf("router: optimal search limited to %d gates, got %d", maxGates, len(gates))
	}
	if initial == nil {
		return 0, fmt.Errorf("router: optimal search needs an initial layout")
	}
	for _, g := range gates {
		if g[0] < 0 || g[0] >= initial.NLogical() || g[1] < 0 || g[1] >= initial.NLogical() || g[0] == g[1] {
			return 0, fmt.Errorf("router: invalid gate (%d,%d)", g[0], g[1])
		}
	}

	full := (1 << uint(len(gates))) - 1

	type state struct {
		key  string
		mask int
	}
	encode := func(l *Layout) string {
		b := make([]byte, len(l.L2P))
		for i, p := range l.L2P {
			b[i] = byte(p)
		}
		return string(b)
	}
	// closure executes every currently-adjacent gate (free).
	closure := func(l *Layout, mask int) int {
		for i, g := range gates {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			if dev.Connected(l.Phys(g[0]), l.Phys(g[1])) {
				mask |= 1 << uint(i)
			}
		}
		return mask
	}

	start := initial.Clone()
	startMask := closure(start, 0)
	if startMask == full {
		return 0, nil
	}
	type node struct {
		layout *Layout
		mask   int
	}
	frontier := []node{{start, startMask}}
	visited := map[state]bool{{encode(start), startMask}: true}
	edges := dev.Coupling.Edges()

	for swaps := 1; ; swaps++ {
		var next []node
		for _, nd := range frontier {
			for _, e := range edges {
				l := nd.layout.Clone()
				l.SwapPhysical(e.U, e.V)
				mask := closure(l, nd.mask)
				if mask == full {
					return swaps, nil
				}
				st := state{encode(l), mask}
				if visited[st] {
					continue
				}
				visited[st] = true
				if len(visited) > maxStates {
					return 0, fmt.Errorf("router: optimal search exceeded %d states", maxStates)
				}
				next = append(next, node{l, mask})
			}
		}
		if len(next) == 0 {
			return 0, fmt.Errorf("router: optimal search exhausted without executing all gates (disconnected device?)")
		}
		frontier = next
	}
}
