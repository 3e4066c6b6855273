package sim

import (
	"math"
	"math/cmplx"
)

// Fixed one-qubit unitaries.
var (
	invSqrt2 = complex(1/math.Sqrt2, 0)

	matH = [2][2]complex128{
		{invSqrt2, invSqrt2},
		{invSqrt2, -invSqrt2},
	}
	matX = [2][2]complex128{
		{0, 1},
		{1, 0},
	}
	matY = [2][2]complex128{
		{0, complex(0, -1)},
		{complex(0, 1), 0},
	}
)

// MatRX returns the X-rotation exp(-i θ/2 X).
func MatRX(theta float64) [2][2]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return [2][2]complex128{{c, s}, {s, c}}
}

// MatRY returns the Y-rotation exp(-i θ/2 Y).
func MatRY(theta float64) [2][2]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return [2][2]complex128{{c, -s}, {s, c}}
}

// MatRZ returns the Z-rotation exp(-i θ/2 Z) = diag(e^{-iθ/2}, e^{iθ/2}).
func MatRZ(theta float64) [2][2]complex128 {
	return [2][2]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	}
}

// MatU1 returns the IBM phase gate diag(1, e^{iλ}) — RZ(λ) up to global
// phase.
func MatU1(lambda float64) [2][2]complex128 {
	return [2][2]complex128{
		{1, 0},
		{0, cmplx.Exp(complex(0, lambda))},
	}
}

// MatU2 returns the IBM gate U2(φ,λ) = U3(π/2, φ, λ).
func MatU2(phi, lambda float64) [2][2]complex128 {
	return MatU3(math.Pi/2, phi, lambda)
}

// MatU3 returns the general IBM one-qubit gate
//
//	U3(θ,φ,λ) = [[cos(θ/2),            -e^{iλ}   sin(θ/2)],
//	             [e^{iφ} sin(θ/2),      e^{i(φ+λ)} cos(θ/2)]].
func MatU3(theta, phi, lambda float64) [2][2]complex128 {
	c := math.Cos(theta / 2)
	s := math.Sin(theta / 2)
	return [2][2]complex128{
		{complex(c, 0), -cmplx.Exp(complex(0, lambda)) * complex(s, 0)},
		{cmplx.Exp(complex(0, phi)) * complex(s, 0), cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0)},
	}
}
