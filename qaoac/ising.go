package qaoac

import (
	"repro/internal/compile"
	"repro/internal/ising"
)

// General Ising-form cost Hamiltonians (§VI "Applicability beyond
// QAOA-MaxCut"): any problem expressible as H = Σ h_i·s_i + Σ J_ij·s_i·s_j
// compiles through the same methodologies, each quadratic term becoming one
// commuting CPhase gate.

// IsingModel is an Ising Hamiltonian over spins s ∈ {−1,+1}.
type IsingModel = ising.Model

// IsingNumberPartition returns the Ising form of two-way number
// partitioning: (Σ s_i·w_i)² = offset + Energy.
func IsingNumberPartition(weights []float64) (*IsingModel, float64) {
	return ising.NumberPartition(weights)
}

// CompileIsing lowers the QAOA circuit for an arbitrary Ising Hamiltonian
// onto dev with the configured methodology.
func CompileIsing(m *IsingModel, params Params, dev *Device, opts CompileOptions) (*CompileResult, error) {
	spec, err := m.CompileSpec(params)
	if err != nil {
		return nil, err
	}
	return compile.CompileSpec(spec, dev, opts)
}
