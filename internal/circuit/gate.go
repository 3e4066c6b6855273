// Package circuit defines the quantum-circuit intermediate representation
// used by the QAOA compiler: gates, circuits, ASAP layering, depth and
// gate-count metrics, and decomposition into the IBM native basis
// {U1, U2, U3, CNOT}.
//
// Gates act on logical or physical qubit indices depending on the pipeline
// stage; the IR itself is agnostic. Angles are radians.
package circuit

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the gate set understood by the IR, the router and the
// simulator.
type Kind int

// Gate kinds. CPhase is the commuting two-qubit cost gate of QAOA: the
// ZZ-interaction exp(-i θ/2 Z⊗Z), which equals the MaxCut cost unitary up to
// a global phase and decomposes exactly as CNOT·(I⊗RZ(θ))·CNOT.
const (
	Invalid Kind = iota
	H
	X
	Y
	Z
	RX
	RY
	RZ
	U1
	U2
	U3
	CNOT
	CZ
	CPhase
	Swap
	Measure
	Barrier
)

var kindNames = [...]string{
	Invalid: "invalid",
	H:       "h",
	X:       "x",
	Y:       "y",
	Z:       "z",
	RX:      "rx",
	RY:      "ry",
	RZ:      "rz",
	U1:      "u1",
	U2:      "u2",
	U3:      "u3",
	CNOT:    "cx",
	CZ:      "cz",
	CPhase:  "zz",
	Swap:    "swap",
	Measure: "measure",
	Barrier: "barrier",
}

// String returns the lowercase OpenQASM-style mnemonic.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Arity returns the number of qubits the kind acts on (Barrier is treated
// as 0-ary; it spans the whole register).
func (k Kind) Arity() int {
	switch k {
	case CNOT, CZ, CPhase, Swap:
		return 2
	case Barrier:
		return 0
	case Invalid:
		return 0
	default:
		return 1
	}
}

// NumParams returns the number of angle parameters the kind carries.
func (k Kind) NumParams() int {
	switch k {
	case RX, RY, RZ, U1, CPhase:
		return 1
	case U2:
		return 2
	case U3:
		return 3
	default:
		return 0
	}
}

// Gate is a single operation. For two-qubit gates Q0 is the control (or the
// first operand for symmetric gates) and Q1 the target; for one-qubit gates
// Q1 is -1.
type Gate struct {
	Kind   Kind
	Q0, Q1 int
	Params [3]float64
}

// Arity returns the number of qubits the gate touches.
func (g Gate) Arity() int { return g.Kind.Arity() }

// Qubits returns the touched qubits (1 or 2 entries; none for barriers).
func (g Gate) Qubits() []int {
	switch g.Arity() {
	case 1:
		return []int{g.Q0}
	case 2:
		return []int{g.Q0, g.Q1}
	default:
		return nil
	}
}

// On reports whether the gate touches qubit q.
func (g Gate) On(q int) bool {
	switch g.Arity() {
	case 1:
		return g.Q0 == q
	case 2:
		return g.Q0 == q || g.Q1 == q
	default:
		return false
	}
}

// SharesQubit reports whether g and h touch a common qubit.
func (g Gate) SharesQubit(h Gate) bool {
	for _, q := range h.Qubits() {
		if g.On(q) {
			return true
		}
	}
	return false
}

// IsDiagonal reports whether the gate's unitary is diagonal in the
// computational basis. Diagonal gates mutually commute — the property the
// paper's passes exploit for the CPhase cost layer.
func (g Gate) IsDiagonal() bool {
	switch g.Kind {
	case Z, RZ, U1, CZ, CPhase:
		return true
	default:
		return false
	}
}

// String renders the gate OpenQASM-style, e.g. "zz(0.78540) q[1],q[4]".
func (g Gate) String() string {
	return string(g.AppendText(make([]byte, 0, 32)))
}

// AppendText appends the String rendering of g to b: angles as %.5f,
// qubits as q[i].
func (g Gate) AppendText(b []byte) []byte { return g.appendText(b, nil) }

// appendText is AppendText with the angles rendered through ac, which
// may be nil.
func (g Gate) appendText(b []byte, ac *angleTexts) []byte {
	b = append(b, g.Kind.String()...)
	if n := g.Kind.NumParams(); n > 0 {
		b = append(b, '(')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = ac.appendAngle(b, g.Params[i])
		}
		b = append(b, ')')
	}
	switch g.Arity() {
	case 1:
		b = append(b, " q["...)
		b = AppendQubit(b, g.Q0)
	case 2:
		b = append(b, " q["...)
		b = AppendQubit(b, g.Q0)
		b = append(b, ",q["...)
		b = AppendQubit(b, g.Q1)
	}
	return b
}

// angleTexts remembers where in the buffer being appended to the first
// angleTextsCap distinct angles were rendered, so a repeated angle copies
// its text instead of formatting it again: strconv renders every %.5f
// through its slow exact path, and a compiled circuit repeats a handful
// of angles across all its gates. Entries are keyed by the float's bits,
// so the copy is the text the angle formats to.
type angleTexts struct {
	n          int
	bits       [angleTextsCap]uint64
	start, end [angleTextsCap]int
}

const angleTextsCap = 16

// appendAngle appends f as %.5f; a nil ac always formats.
func (ac *angleTexts) appendAngle(b []byte, f float64) []byte {
	if ac == nil {
		return strconv.AppendFloat(b, f, 'f', 5, 64)
	}
	bits := math.Float64bits(f)
	for i := 0; i < ac.n; i++ {
		if ac.bits[i] == bits {
			return append(b, b[ac.start[i]:ac.end[i]]...)
		}
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, 'f', 5, 64)
	if ac.n < angleTextsCap {
		ac.bits[ac.n], ac.start[ac.n], ac.end[ac.n] = bits, start, len(b)
		ac.n++
	}
	return b
}

// AppendQubit appends the decimal index q and a closing bracket — the
// tail of a "q[i]" operand.
func AppendQubit(b []byte, q int) []byte {
	return append(strconv.AppendInt(b, int64(q), 10), ']')
}

// Constructors.

// NewH returns a Hadamard on q.
func NewH(q int) Gate { return Gate{Kind: H, Q0: q, Q1: -1} }

// NewX returns a Pauli-X on q.
func NewX(q int) Gate { return Gate{Kind: X, Q0: q, Q1: -1} }

// NewY returns a Pauli-Y on q.
func NewY(q int) Gate { return Gate{Kind: Y, Q0: q, Q1: -1} }

// NewZ returns a Pauli-Z on q.
func NewZ(q int) Gate { return Gate{Kind: Z, Q0: q, Q1: -1} }

// NewRX returns an X-rotation by theta on q.
func NewRX(q int, theta float64) Gate {
	return Gate{Kind: RX, Q0: q, Q1: -1, Params: [3]float64{theta}}
}

// NewRY returns a Y-rotation by theta on q.
func NewRY(q int, theta float64) Gate {
	return Gate{Kind: RY, Q0: q, Q1: -1, Params: [3]float64{theta}}
}

// NewRZ returns a Z-rotation by theta on q.
func NewRZ(q int, theta float64) Gate {
	return Gate{Kind: RZ, Q0: q, Q1: -1, Params: [3]float64{theta}}
}

// NewU1 returns the IBM virtual-Z phase gate diag(1, e^{iλ}).
func NewU1(q int, lambda float64) Gate {
	return Gate{Kind: U1, Q0: q, Q1: -1, Params: [3]float64{lambda}}
}

// NewU2 returns the IBM single-pulse gate U2(φ, λ).
func NewU2(q int, phi, lambda float64) Gate {
	return Gate{Kind: U2, Q0: q, Q1: -1, Params: [3]float64{phi, lambda}}
}

// NewU3 returns the IBM general one-qubit gate U3(θ, φ, λ).
func NewU3(q int, theta, phi, lambda float64) Gate {
	return Gate{Kind: U3, Q0: q, Q1: -1, Params: [3]float64{theta, phi, lambda}}
}

// NewCNOT returns a CNOT with control c and target t.
func NewCNOT(c, t int) Gate { return Gate{Kind: CNOT, Q0: c, Q1: t} }

// NewCZ returns a controlled-Z between a and b.
func NewCZ(a, b int) Gate { return Gate{Kind: CZ, Q0: a, Q1: b} }

// NewCPhase returns the QAOA cost gate exp(-i θ/2 Z⊗Z) between a and b.
func NewCPhase(a, b int, theta float64) Gate {
	return Gate{Kind: CPhase, Q0: a, Q1: b, Params: [3]float64{theta}}
}

// NewSwap returns a SWAP between a and b.
func NewSwap(a, b int) Gate { return Gate{Kind: Swap, Q0: a, Q1: b} }

// NewMeasure returns a computational-basis measurement of q.
func NewMeasure(q int) Gate { return Gate{Kind: Measure, Q0: q, Q1: -1} }

// Validate checks qubit indices against a register of n qubits.
func (g Gate) Validate(n int) error {
	switch g.Arity() {
	case 1:
		if g.Q0 < 0 || g.Q0 >= n {
			return fmt.Errorf("circuit: gate %s qubit out of range [0,%d)", g, n)
		}
	case 2:
		if g.Q0 < 0 || g.Q0 >= n || g.Q1 < 0 || g.Q1 >= n {
			return fmt.Errorf("circuit: gate %s qubit out of range [0,%d)", g, n)
		}
		if g.Q0 == g.Q1 {
			return fmt.Errorf("circuit: gate %s uses the same qubit twice", g)
		}
	}
	return nil
}

// NormalizeAngle maps an angle to (-π, π] for stable comparisons.
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
