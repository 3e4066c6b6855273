// Package qasm serializes circuits to OpenQASM 2.0 and parses the subset of
// OpenQASM 2.0 this library emits, so compiled circuits can be exchanged
// with other toolchains (qiskit, tket) and reloaded for simulation.
//
// The exporter emits the qelib1 gate names (h, x, y, z, rx, ry, rz, u1, u2,
// u3, cx, cz, swap, rzz, barrier, measure); the CPhase cost gate maps to
// rzz. The importer accepts one statement per line, `pi`-expressions in
// parameters (e.g. -pi/4, 2*pi, 0.5*pi), and line (`//`) comments.
package qasm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Export renders c as an OpenQASM 2.0 program. Every qubit gets a matching
// classical bit; measure statements target the same index.
func Export(c *circuit.Circuit) string {
	return string(Append(make([]byte, 0, c.TextSizeHint()), c))
}

// Append appends the Export rendering of c to b, so a caller with a reused
// buffer renders without allocating. Angles print as %.12g.
func Append(b []byte, c *circuit.Circuit) []byte {
	b = append(b, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q["...)
	b = circuit.AppendQubit(b, c.NQubits)
	b = append(b, ";\ncreg c["...)
	b = circuit.AppendQubit(b, c.NQubits)
	b = append(b, ";\n"...)
	for _, g := range c.Gates {
		b = appendGate(b, g)
		b = append(b, '\n')
	}
	return b
}

func appendGate(b []byte, g circuit.Gate) []byte {
	switch g.Kind {
	case circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.RX, circuit.RY, circuit.RZ, circuit.U1,
		circuit.U2, circuit.U3, circuit.CNOT, circuit.CZ, circuit.Swap:
		b = append(b, g.Kind.String()...)
	case circuit.CPhase:
		b = append(b, "rzz"...)
	case circuit.Measure:
		b = append(b, "measure q["...)
		b = circuit.AppendQubit(b, g.Q0)
		b = append(b, " -> c["...)
		b = circuit.AppendQubit(b, g.Q0)
		return append(b, ';')
	case circuit.Barrier:
		return append(b, "barrier q;"...)
	default:
		panic("qasm: cannot export " + g.Kind.String())
	}
	if n := g.Kind.NumParams(); n > 0 {
		b = append(b, '(')
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, g.Params[i], 'g', 12, 64)
		}
		b = append(b, ')')
	}
	b = append(b, " q["...)
	b = circuit.AppendQubit(b, g.Q0)
	if g.Arity() == 2 {
		b = append(b, ",q["...)
		b = circuit.AppendQubit(b, g.Q1)
	}
	return append(b, ';')
}

// Import parses an OpenQASM 2.0 program in the subset Export produces.
func Import(src string) (*circuit.Circuit, error) {
	var c *circuit.Circuit
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		stmts := strings.Split(line, ";")
		for _, stmt := range stmts {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			var err error
			c, err = parseStatement(c, stmt)
			if err != nil {
				return nil, fmt.Errorf("qasm: line %d: %w", lineNo+1, err)
			}
		}
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return c, nil
}

func parseStatement(c *circuit.Circuit, stmt string) (*circuit.Circuit, error) {
	switch {
	case strings.HasPrefix(stmt, "OPENQASM"), strings.HasPrefix(stmt, "include"),
		strings.HasPrefix(stmt, "creg"):
		return c, nil
	case strings.HasPrefix(stmt, "qreg"):
		var n int
		if _, err := fmt.Sscanf(stmt, "qreg q[%d]", &n); err != nil {
			return nil, fmt.Errorf("bad qreg %q", stmt)
		}
		if c != nil {
			return nil, fmt.Errorf("duplicate qreg")
		}
		return circuit.New(n), nil
	}
	if c == nil {
		return nil, fmt.Errorf("gate before qreg: %q", stmt)
	}
	g, err := parseGate(stmt)
	if err != nil {
		return nil, err
	}
	if g.Kind == circuit.Invalid { // "barrier q" — whole-register barrier
		c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.Barrier})
		return c, nil
	}
	if err := g.Validate(c.NQubits); err != nil {
		return nil, err
	}
	c.Gates = append(c.Gates, g)
	return c, nil
}

var nameToKind = map[string]circuit.Kind{
	"h": circuit.H, "x": circuit.X, "y": circuit.Y, "z": circuit.Z,
	"rx": circuit.RX, "ry": circuit.RY, "rz": circuit.RZ,
	"u1": circuit.U1, "u2": circuit.U2, "u3": circuit.U3,
	"cx": circuit.CNOT, "cz": circuit.CZ, "rzz": circuit.CPhase,
	"swap": circuit.Swap,
}

func parseGate(stmt string) (circuit.Gate, error) {
	if strings.HasPrefix(stmt, "barrier") {
		return circuit.Gate{Kind: circuit.Invalid}, nil
	}
	if strings.HasPrefix(stmt, "measure") {
		var q, cbit int
		if _, err := fmt.Sscanf(stmt, "measure q[%d] -> c[%d]", &q, &cbit); err != nil {
			return circuit.Gate{}, fmt.Errorf("bad measure %q", stmt)
		}
		return circuit.NewMeasure(q), nil
	}

	// Split "name(params) operands".
	head := stmt
	var paramsStr string
	if open := strings.IndexByte(stmt, '('); open >= 0 {
		closeIdx := strings.IndexByte(stmt, ')')
		if closeIdx < open {
			return circuit.Gate{}, fmt.Errorf("unbalanced parens in %q", stmt)
		}
		paramsStr = stmt[open+1 : closeIdx]
		head = stmt[:open] + stmt[closeIdx+1:]
	}
	fields := strings.Fields(head)
	if len(fields) != 2 {
		return circuit.Gate{}, fmt.Errorf("malformed gate %q", stmt)
	}
	kind, ok := nameToKind[fields[0]]
	if !ok {
		return circuit.Gate{}, fmt.Errorf("unsupported gate %q", fields[0])
	}

	// Parameters.
	var params [3]float64
	nWant := kind.NumParams()
	if nWant > 0 {
		parts := strings.Split(paramsStr, ",")
		if len(parts) != nWant {
			return circuit.Gate{}, fmt.Errorf("%s expects %d params, got %d", fields[0], nWant, len(parts))
		}
		for i, p := range parts {
			v, err := evalParam(strings.TrimSpace(p))
			if err != nil {
				return circuit.Gate{}, err
			}
			params[i] = v
		}
	} else if paramsStr != "" {
		return circuit.Gate{}, fmt.Errorf("%s takes no params", fields[0])
	}

	// Operands.
	ops := strings.Split(fields[1], ",")
	qubits := make([]int, len(ops))
	for i, op := range ops {
		var q int
		if _, err := fmt.Sscanf(strings.TrimSpace(op), "q[%d]", &q); err != nil {
			return circuit.Gate{}, fmt.Errorf("bad operand %q", op)
		}
		qubits[i] = q
	}
	switch kind.Arity() {
	case 1:
		if len(qubits) != 1 {
			return circuit.Gate{}, fmt.Errorf("%s expects 1 qubit", fields[0])
		}
		return circuit.Gate{Kind: kind, Q0: qubits[0], Q1: -1, Params: params}, nil
	case 2:
		if len(qubits) != 2 {
			return circuit.Gate{}, fmt.Errorf("%s expects 2 qubits", fields[0])
		}
		return circuit.Gate{Kind: kind, Q0: qubits[0], Q1: qubits[1], Params: params}, nil
	}
	return circuit.Gate{}, fmt.Errorf("unreachable arity for %q", fields[0])
}
