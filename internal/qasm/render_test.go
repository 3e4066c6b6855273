package qasm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

// exportOracle and gateQASMOracle are the fmt-based exporter that Append
// replaced; the property test below holds the strconv renderer to them
// byte for byte.
func exportOracle(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NQubits)
	fmt.Fprintf(&b, "creg c[%d];\n", c.NQubits)
	for _, g := range c.Gates {
		b.WriteString(gateQASMOracle(g))
		b.WriteByte('\n')
	}
	return b.String()
}

func gateQASMOracle(g circuit.Gate) string {
	switch g.Kind {
	case circuit.H, circuit.X, circuit.Y, circuit.Z:
		return fmt.Sprintf("%s q[%d];", g.Kind, g.Q0)
	case circuit.RX, circuit.RY, circuit.RZ, circuit.U1:
		return fmt.Sprintf("%s(%.12g) q[%d];", g.Kind, g.Params[0], g.Q0)
	case circuit.U2:
		return fmt.Sprintf("u2(%.12g,%.12g) q[%d];", g.Params[0], g.Params[1], g.Q0)
	case circuit.U3:
		return fmt.Sprintf("u3(%.12g,%.12g,%.12g) q[%d];", g.Params[0], g.Params[1], g.Params[2], g.Q0)
	case circuit.CNOT:
		return fmt.Sprintf("cx q[%d],q[%d];", g.Q0, g.Q1)
	case circuit.CZ:
		return fmt.Sprintf("cz q[%d],q[%d];", g.Q0, g.Q1)
	case circuit.CPhase:
		return fmt.Sprintf("rzz(%.12g) q[%d],q[%d];", g.Params[0], g.Q0, g.Q1)
	case circuit.Swap:
		return fmt.Sprintf("swap q[%d],q[%d];", g.Q0, g.Q1)
	case circuit.Measure:
		return fmt.Sprintf("measure q[%d] -> c[%d];", g.Q0, g.Q0)
	case circuit.Barrier:
		return "barrier q;"
	default:
		panic("qasm: cannot export " + g.Kind.String())
	}
}

// specialAngles are the parameters where %.12g is easiest to get wrong:
// signed zero, infinities, NaN, and both sides of its exponent switches
// (1e-4 and 1e12), plus the %g shortest-form switch at 1e21.
var specialAngles = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e21, -1e21, 1e20, 999999999999999999999.0, 1e-5, -1e-5, 1e-4, 9.9999999999e-5,
	0.000099999999999995, 1e12, -1e12, 999999999999.5, 999999999999.4, 9.999999999995e11, 1e11,
	math.Pi, -math.Pi / 4, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

func randomAngle(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return specialAngles[rng.Intn(len(specialAngles))]
	case 1:
		return (rng.Float64()*2 - 1) * 2 * math.Pi
	default:
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(50)-25))
	}
}

var exportKinds = []circuit.Kind{
	circuit.H, circuit.X, circuit.Y, circuit.Z, circuit.RX, circuit.RY, circuit.RZ,
	circuit.U1, circuit.U2, circuit.U3, circuit.CNOT, circuit.CZ, circuit.CPhase,
	circuit.Swap, circuit.Measure, circuit.Barrier,
}

func randomGate(rng *rand.Rand, k circuit.Kind) circuit.Gate {
	g := circuit.Gate{Kind: k, Q0: rng.Intn(1200), Q1: rng.Intn(1200)}
	for i := range g.Params {
		g.Params[i] = randomAngle(rng)
	}
	return g
}

func TestAppendMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 120000
	var buf []byte
	for i := 0; i < n; i++ {
		g := randomGate(rng, exportKinds[i%len(exportKinds)])
		want := gateQASMOracle(g)
		buf = appendGate(buf[:0], g)
		if string(buf) != want {
			t.Fatalf("gate %+v: appendGate = %q, oracle %q", g, buf, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		c := &circuit.Circuit{NQubits: rng.Intn(40)}
		for i := rng.Intn(60); i > 0; i-- {
			c.Gates = append(c.Gates, randomGate(rng, exportKinds[rng.Intn(len(exportKinds))]))
		}
		want := exportOracle(c)
		if got := Export(c); got != want {
			t.Fatalf("trial %d: Export differs from oracle\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
		if got := Append([]byte("prefix"), c); string(got) != "prefix"+want {
			t.Fatalf("trial %d: Append does not append to its buffer", trial)
		}
	}
}

func TestExportGolden(t *testing.T) {
	c := circuit.New(5).Append(
		circuit.NewH(0), circuit.NewX(1), circuit.NewY(2), circuit.NewZ(3),
		circuit.NewRX(0, 0.7853981633974483), circuit.NewRY(1, -1.5), circuit.NewRZ(2, 1e-6),
		circuit.NewU1(3, -0.8), circuit.NewU2(4, 0, math.Pi),
		circuit.NewU3(0, 1.5707963267948966, math.Copysign(0, -1), 1e12),
		circuit.NewCNOT(0, 1), circuit.NewCZ(1, 2), circuit.NewCPhase(2, 3, -0.6000000000000001),
		circuit.NewSwap(3, 4))
	c.Gates = append(c.Gates, circuit.Gate{Kind: circuit.Barrier})
	c.Append(circuit.NewMeasure(0), circuit.NewMeasure(4))
	const want = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
x q[1];
y q[2];
z q[3];
rx(0.785398163397) q[0];
ry(-1.5) q[1];
rz(1e-06) q[2];
u1(-0.8) q[3];
u2(0,3.14159265359) q[4];
u3(1.57079632679,-0,1e+12) q[0];
cx q[0],q[1];
cz q[1],q[2];
rzz(-0.6) q[2],q[3];
swap q[3],q[4];
barrier q;
measure q[0] -> c[0];
measure q[4] -> c[4];
`
	if got := Export(c); got != want {
		t.Errorf("Export drifted from the golden program\ngot:\n%s\nwant:\n%s", got, want)
	}
}
