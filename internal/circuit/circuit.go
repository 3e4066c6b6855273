package circuit

import "fmt"

// Circuit is an ordered gate list over a register of NQubits qubits.
type Circuit struct {
	NQubits int
	Gates   []Gate
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{NQubits: n}
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NQubits: c.NQubits, Gates: make([]Gate, len(c.Gates))}
	copy(out.Gates, c.Gates)
	return out
}

// Append adds gates to the end of the circuit, panicking on invalid qubit
// indices (construction bugs, not runtime conditions).
func (c *Circuit) Append(gs ...Gate) *Circuit {
	for _, g := range gs {
		if err := g.Validate(c.NQubits); err != nil {
			panic(err)
		}
		c.Gates = append(c.Gates, g)
	}
	return c
}

// AppendCircuit concatenates other's gates onto c ("stitching" in the
// paper's incremental-compilation flow). The register sizes must match.
func (c *Circuit) AppendCircuit(other *Circuit) *Circuit {
	if other.NQubits != c.NQubits {
		panic(fmt.Sprintf("circuit: stitching %d-qubit circuit onto %d-qubit circuit", other.NQubits, c.NQubits))
	}
	c.Gates = append(c.Gates, other.Gates...)
	return c
}

// Len returns the number of gates (barriers included).
func (c *Circuit) Len() int { return len(c.Gates) }

// GateCount returns the number of non-barrier operations.
func (c *Circuit) GateCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != Barrier {
			n++
		}
	}
	return n
}

// CountKind returns the number of gates of kind k.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitCount returns the number of two-qubit operations.
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.Gates {
		if g.Arity() == 2 {
			n++
		}
	}
	return n
}

// Counts returns a histogram of gate kinds.
func (c *Circuit) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, g := range c.Gates {
		m[g.Kind]++
	}
	return m
}

// Depth returns the length of the critical path: gates are scheduled
// as-soon-as-possible and the number of resulting time steps is returned.
// Barriers synchronize all qubits but occupy no time step of their own.
// Measurements count as ordinary one-qubit operations, matching the paper's
// "including the measurement operations" accounting.
func (c *Circuit) Depth() int {
	level := make([]int, c.NQubits)
	depth := 0
	for _, g := range c.Gates {
		switch g.Arity() {
		case 0: // barrier
			max := 0
			for _, l := range level {
				if l > max {
					max = l
				}
			}
			for i := range level {
				level[i] = max
			}
		case 1:
			level[g.Q0]++
			if level[g.Q0] > depth {
				depth = level[g.Q0]
			}
		case 2:
			l := level[g.Q0]
			if level[g.Q1] > l {
				l = level[g.Q1]
			}
			l++
			level[g.Q0], level[g.Q1] = l, l
			if l > depth {
				depth = l
			}
		}
	}
	return depth
}

// Layers groups gate indices into ASAP time steps: layer t holds the gates
// scheduled at depth t+1. Barriers are skipped (they only synchronize).
func (c *Circuit) Layers() [][]int {
	level := make([]int, c.NQubits)
	var layers [][]int
	for i, g := range c.Gates {
		switch g.Arity() {
		case 0:
			max := 0
			for _, l := range level {
				if l > max {
					max = l
				}
			}
			for j := range level {
				level[j] = max
			}
			continue
		case 1:
			level[g.Q0]++
			layers = placeAt(layers, level[g.Q0]-1, i)
		case 2:
			l := level[g.Q0]
			if level[g.Q1] > l {
				l = level[g.Q1]
			}
			l++
			level[g.Q0], level[g.Q1] = l, l
			layers = placeAt(layers, l-1, i)
		}
	}
	return layers
}

func placeAt(layers [][]int, t, gate int) [][]int {
	for len(layers) <= t {
		layers = append(layers, nil)
	}
	layers[t] = append(layers[t], gate)
	return layers
}

// MeasureAll appends a measurement on every qubit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NQubits; q++ {
		c.Append(NewMeasure(q))
	}
	return c
}

// String renders the circuit one gate per line in OpenQASM-like syntax.
func (c *Circuit) String() string {
	return string(c.AppendText(make([]byte, 0, c.TextSizeHint())))
}

// AppendText appends the String rendering of c to b.
func (c *Circuit) AppendText(b []byte) []byte {
	b = append(b, "qreg q["...)
	b = AppendQubit(b, c.NQubits)
	b = append(b, ";\n"...)
	var ac angleTexts
	for _, g := range c.Gates {
		b = g.appendText(b, &ac)
		b = append(b, ";\n"...)
	}
	return b
}

// TextSizeHint is a buffer capacity that holds a text rendering of c — the
// String form or its OpenQASM export — in one allocation for typical
// angles.
func (c *Circuit) TextSizeHint() int { return 64 + 28*len(c.Gates) }
