package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gateStringOracle is the fmt-based Gate.String that AppendText replaced;
// the property test below holds the strconv renderer to it byte for byte.
func gateStringOracle(g Gate) string {
	s := g.Kind.String()
	if n := g.Kind.NumParams(); n > 0 {
		s += "("
		for i := 0; i < n; i++ {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%.5f", g.Params[i])
		}
		s += ")"
	}
	switch g.Arity() {
	case 1:
		s += fmt.Sprintf(" q[%d]", g.Q0)
	case 2:
		s += fmt.Sprintf(" q[%d],q[%d]", g.Q0, g.Q1)
	}
	return s
}

// circuitStringOracle is the fmt-based Circuit.String.
func circuitStringOracle(c *Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", c.NQubits)
	for _, g := range c.Gates {
		b.WriteString(gateStringOracle(g))
		b.WriteString(";\n")
	}
	return b.String()
}

// specialAngles are the parameters where float formatting is easiest to
// get wrong: signed zero, infinities, NaN, rounding midpoints of %.5f,
// and both sides of the exponent switches of %g (1e-4, 1e21) and %.12g
// (1e-4, 1e12).
var specialAngles = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e21, -1e21, 1e20, 999999999999999999999.0, 1e-5, -1e-5, 1e-4, 9.9999999999e-5,
	1e12, 999999999999.5, 9.999999999995e11, 1e11, 123456789012.5,
	0.000005, 0.0000049999, 0.000015, 2.5e-6, 1.234565, -1.234565,
	math.Pi, -math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324,
}

// randomAngle draws a test parameter: a special value, a typical rotation
// angle, or a value of random magnitude and sign.
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

func randomGate(rng *rand.Rand, k Kind) Gate {
	g := Gate{Kind: k, Q0: rng.Intn(1200), Q1: rng.Intn(1200)}
	if rng.Intn(10) == 0 {
		g.Q0 = -1 - rng.Intn(5) // rendering never validates; cover negatives
	}
	for i := range g.Params {
		g.Params[i] = randomAngle(rng)
	}
	return g
}

func TestGateTextMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []Kind{Kind(-3), Kind(99)}
	for k := Invalid; k <= Barrier; k++ {
		kinds = append(kinds, k)
	}
	const n = 120000
	var buf []byte
	for i := 0; i < n; i++ {
		g := randomGate(rng, kinds[i%len(kinds)])
		want := gateStringOracle(g)
		if got := g.String(); got != want {
			t.Fatalf("gate %+v: String = %q, oracle %q", g, got, want)
		}
		buf = g.AppendText(append(buf[:0], "prefix"...))
		if string(buf) != "prefix"+want {
			t.Fatalf("gate %+v: AppendText = %q, oracle %q", g, buf, want)
		}
	}
	for _, a := range specialAngles {
		g := NewU3(3, a, -a, a)
		if got, want := g.String(), gateStringOracle(g); got != want {
			t.Errorf("U3(%v): String = %q, oracle %q", a, got, want)
		}
	}
}

func TestCircuitTextMatchesFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		c := &Circuit{NQubits: rng.Intn(40)}
		for i := rng.Intn(60); i > 0; i-- {
			c.Gates = append(c.Gates, randomGate(rng, Kind(1+rng.Intn(int(Barrier)))))
		}
		if got, want := c.String(), circuitStringOracle(c); got != want {
			t.Fatalf("trial %d: String differs from oracle\ngot:\n%s\nwant:\n%s", trial, got, want)
		}
	}
}

// A compiled circuit repeats a few angles across many gates, and
// Circuit.AppendText copies a repeat's text from its first rendering: draw
// angles from pools smaller and larger than the table it keeps, signed
// zeros and NaN included, behind a prefix the copies must not read.
func TestCircuitTextRepeatedAnglesMatchFmtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, distinct := range []int{1, 3, angleTextsCap, angleTextsCap + 1, 4 * angleTextsCap} {
		pool := append([]float64(nil), specialAngles[:5]...)
		for len(pool) < distinct {
			pool = append(pool, randomAngle(rng))
		}
		pool = pool[:distinct]
		c := &Circuit{NQubits: 20}
		for i := 0; i < 400; i++ {
			g := randomGate(rng, Kind(1+rng.Intn(int(Barrier))))
			for k := range g.Params {
				g.Params[k] = pool[rng.Intn(len(pool))]
			}
			c.Gates = append(c.Gates, g)
		}
		want := circuitStringOracle(c)
		if got := c.String(); got != want {
			t.Fatalf("%d distinct angles: String differs from oracle\ngot:\n%s\nwant:\n%s", distinct, got, want)
		}
		if got := c.AppendText([]byte("zz(9.99999) ")); string(got) != "zz(9.99999) "+want {
			t.Fatalf("%d distinct angles: AppendText after a prefix differs from oracle", distinct)
		}
	}
}

// goldenCircuit covers every gate kind once, with angles that exercise
// rounding and sign.
func goldenCircuit() *Circuit {
	c := New(5)
	c.Append(NewH(0), NewX(1), NewY(2), NewZ(3),
		NewRX(0, 0.7853981633974483), NewRY(1, -1.5), NewRZ(2, 1e-6),
		NewU1(3, -0.8), NewU2(4, 0, math.Pi), NewU3(0, 1.5707963267948966, -2.5e-6, 3.000005),
		NewCNOT(0, 1), NewCZ(1, 2), NewCPhase(2, 3, -0.6000000000000001), NewSwap(3, 4))
	c.Gates = append(c.Gates, Gate{Kind: Barrier})
	c.Append(NewMeasure(0), NewMeasure(4))
	return c
}

func TestCircuitStringGolden(t *testing.T) {
	const want = `qreg q[5];
h q[0];
x q[1];
y q[2];
z q[3];
rx(0.78540) q[0];
ry(-1.50000) q[1];
rz(0.00000) q[2];
u1(-0.80000) q[3];
u2(0.00000,3.14159) q[4];
u3(1.57080,-0.00000,3.00000) q[0];
cx q[0],q[1];
cz q[1],q[2];
zz(-0.60000) q[2],q[3];
swap q[3],q[4];
barrier;
measure q[0];
measure q[4];
`
	if got := goldenCircuit().String(); got != want {
		t.Errorf("Circuit.String drifted from the golden rendering\ngot:\n%s\nwant:\n%s", got, want)
	}
}
