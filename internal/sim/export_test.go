package sim

// Test hooks for the external test package, which compiles circuits
// (compile imports sim, so those tests cannot live in package sim).
var (
	NaiveSampleNoisy   = naiveSampleNoisy
	AssertSamplesEqual = assertSamplesEqual
	NoisyTestCircuit   = noisyTestCircuit
)

// ActiveQubits returns the number of slots in the register the executor
// simulates.
func ActiveQubits(e *Executor) int { return len(e.final) }

// TermBitsError reports a diagonal term of the executor's program whose
// mask has other than one or two bits.
func TermBitsError(e *Executor) error { return programTermBitsError(e.prog) }

// HalfRegister reports whether the executor runs the ops after the last
// preparation H on the low half of its slot register.
func HalfRegister(e *Executor) bool { return e.half }
