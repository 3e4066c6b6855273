package compile

import (
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/router"
)

// reverseIterations is the number of forward/reverse passes of
// ReverseTraversalMapping.
const reverseIterations = 3

// ReverseTraversalMapping implements the reverse-traversal initial-mapping
// refinement of Li, Ding & Xie (ASPLOS'19), which the paper discusses as
// related work (§III "Initial Mapping"): starting from a random mapping,
// the circuit and its reverse are routed alternately, each pass's final
// layout seeding the next pass's initial layout. Because the reverse of a
// quantum circuit undoes it, the final layout of a reverse pass is a good
// initial layout for the forward circuit. reverseIterations passes (the
// count Li et al. quote) converge at the cost of the repeated compilations.
//
// Only the two-qubit cost structure matters for routing, so the traversal
// routes the spec's ZZ terms in their given order.
func ReverseTraversalMapping(spec Spec, dev *device.Device, o Options) (*router.Layout, error) {
	forward := circuit.New(spec.N)
	for _, level := range spec.Levels {
		for _, t := range level.ZZ {
			forward.Append(circuit.NewCPhase(t.U, t.V, t.Theta))
		}
	}
	reverse := circuit.New(spec.N)
	for i := len(forward.Gates) - 1; i >= 0; i-- {
		reverse.Append(forward.Gates[i])
	}

	current, err := RandomMapping(spec.N, dev, o.Rng)
	if err != nil {
		return nil, err
	}
	r := router.New(dev)
	r.LookaheadWeight = o.LookaheadWeight
	r.Obs = o.Obs // the map pass's 2·reverseIterations routes count as routing work
	for it := 0; it < reverseIterations; it++ {
		fwd, err := r.Route(forward, current)
		if err != nil {
			return nil, err
		}
		rev, err := r.Route(reverse, fwd.Final)
		if err != nil {
			return nil, err
		}
		current = rev.Final
	}
	return current, nil
}
