// Package qaoac is the public API of the QAOA circuit-compilation library —
// a from-scratch Go reproduction of "Circuit Compilation Methodologies for
// Quantum Approximate Optimization Algorithm" (Alam, Ash-Saki, Ghosh;
// MICRO 2020).
//
// The library compiles QAOA MaxCut circuits onto realistically-coupled
// quantum hardware using the paper's four methodologies:
//
//   - QAIM: integrated qubit allocation and initial mapping,
//   - IP:   instruction parallelization of the commuting CPhase gates,
//   - IC:   incremental, layout-aware layer-by-layer compilation,
//   - VIC:  variation-aware IC that prefers reliable couplings,
//
// together with the NAIVE and GreedyV baselines, a layered SWAP-insertion
// backend, device models (ibmq_20_tokyo, ibmq_16_melbourne, grids), a
// state-vector simulator with a stochastic noise model, and the full
// experiment harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start:
//
//	g := qaoac.MustRandomRegular(12, 3, rand.New(rand.NewSource(1)))
//	prob, _ := qaoac.NewMaxCut(g)
//	dev := qaoac.Tokyo20()
//	res, _ := qaoac.Compile(prob, qaoac.P1Params(0.5, 0.2), dev,
//	    qaoac.PresetIC.Options(rand.New(rand.NewSource(2))))
//	fmt.Println(res.Depth, res.GateCount, res.SwapCount)
package qaoac

import (
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/router"
	"repro/internal/sim"
)

// Problem graphs.

// Graph is a simple undirected graph (problem instance or coupling map).
type Graph = graphs.Graph

// Edge is an undirected graph edge.
type Edge = graphs.Edge

// ErdosRenyi samples a G(n, p) random graph.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph { return graphs.ErdosRenyi(n, p, rng) }

// RandomRegular samples a uniform random d-regular graph.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) { return graphs.RandomRegular(n, d, rng) }

// MustRandomRegular is RandomRegular panicking on error.
func MustRandomRegular(n, d int, rng *rand.Rand) *Graph { return graphs.MustRandomRegular(n, d, rng) }

// MaxCutAnneal approximates MaxCut by simulated annealing — the optimum
// estimate for instances beyond the exhaustive limit.
func MaxCutAnneal(g *Graph, sweeps int, rng *rand.Rand) (int, []bool) {
	return graphs.MaxCutAnneal(g, sweeps, rng)
}

// EdgeColoring returns a proper Δ+1 edge coloring (Misra–Gries/Vizing) —
// the optimal-layer-count scheduler for commuting cost blocks.
func EdgeColoring(g *Graph) ([]int, error) { return graphs.EdgeColoring(g) }

// ParseEdgeList reads a problem graph from the "n <count>" + "u v [w]" text
// format.
func ParseEdgeList(src string) (*Graph, error) { return graphs.ParseEdgeList(src) }

// QAOA problems and circuits.

// Problem is a MaxCut instance with its exact optimum.
type Problem = qaoa.Problem

// Params are the 2p QAOA angles.
type Params = qaoa.Params

// NewMaxCut wraps a graph as a MaxCut problem (exact optimum computed).
func NewMaxCut(g *Graph) (*Problem, error) { return qaoa.NewMaxCut(g) }

// P1Params returns single-level parameters (γ, β).
func P1Params(gamma, beta float64) Params {
	return Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
}

// BuildCircuit constructs the logical QAOA state-preparation circuit.
func BuildCircuit(p *Problem, params Params, order []Edge) (*Circuit, error) {
	return qaoa.BuildCircuit(p, params, order)
}

// ExpectationP1Analytic is the closed-form p=1 MaxCut expectation ⟨C⟩(γ,β).
func ExpectationP1Analytic(g *Graph, gamma, beta float64) float64 {
	return qaoa.ExpectationP1Analytic(g, gamma, beta)
}

// ApproximationRatio is mean sampled cut over the optimum.
func ApproximationRatio(p *Problem, samples []uint64) (float64, error) {
	return qaoa.ApproximationRatio(p, samples)
}

// ARG is the approximation ratio gap 100·(r0−rh)/r0.
func ARG(r0, rh float64) float64 { return qaoa.ARG(r0, rh) }

// OptimizeP1 finds (γ, β) maximizing the analytic p=1 expectation for g.
func OptimizeP1(g *Graph) (gamma, beta, value float64, err error) {
	return optimize.MaximizeP1(func(gm, bt float64) float64 {
		return qaoa.ExpectationP1Analytic(g, gm, bt)
	}, 24)
}

// Circuits.

// Circuit is the gate-list IR.
type Circuit = circuit.Circuit

// Layout is a logical-to-physical qubit assignment.
type Layout = router.Layout

// Devices.

// Device models target hardware (coupling graph + calibration).
type Device = device.Device

// Tokyo20 returns the 20-qubit ibmq_20_tokyo topology.
func Tokyo20() *Device { return device.Tokyo20() }

// Melbourne15 returns ibmq_16_melbourne with its calibration snapshot.
func Melbourne15() *Device { return device.Melbourne15() }

// GridDevice returns an r×c nearest-neighbour grid.
func GridDevice(r, c int) *Device { return device.Grid(r, c) }

// LinearDevice returns an n-qubit chain.
func LinearDevice(n int) *Device { return device.Linear(n) }

// RingDevice returns an n-qubit cycle.
func RingDevice(n int) *Device { return device.Ring(n) }

// FullyConnectedDevice returns an all-to-all coupled device — an ideal
// baseline requiring no SWAPs.
func FullyConnectedDevice(n int) *Device { return device.FullyConnected(n) }

// Falcon27 returns the 27-qubit heavy-hex topology of IBM's Falcon
// generation.
func Falcon27() *Device { return device.Falcon27() }

// Compilation.

// CompileResult is a compiled circuit with metrics.
type CompileResult = compile.Result

// CompileOptions configures a compilation run.
type CompileOptions = compile.Options

// Preset names the paper's evaluated configurations.
type Preset = compile.Preset

// The paper's compilation presets.
const (
	PresetNaive   = compile.PresetNaive
	PresetGreedyV = compile.PresetGreedyV
	PresetQAIM    = compile.PresetQAIM
	PresetIP      = compile.PresetIP
	PresetIC      = compile.PresetIC
	PresetVIC     = compile.PresetVIC
)

// Presets lists all presets in paper order.
var Presets = compile.Presets

// Compile lowers the QAOA circuit for prob onto dev with the configured
// methodology.
func Compile(prob *Problem, params Params, dev *Device, opts CompileOptions) (*CompileResult, error) {
	return compile.Compile(prob, params, dev, opts)
}

// QAIMMapping computes the paper's initial mapping for an arbitrary
// problem graph and device.
func QAIMMapping(g *Graph, dev *Device, radius int, rng *rand.Rand) (*Layout, error) {
	return compile.QAIMMapping(g, dev, radius, rng)
}

// IPOrder returns the instruction-parallelized CPhase gate order.
func IPOrder(g *Graph, rng *rand.Rand, packingLimit int) []Edge {
	return compile.IPOrder(g, rng, packingLimit)
}

// Simulation.

// State is a state-vector.
type State = sim.State

// NoiseModel is the stochastic Pauli + readout error model.
type NoiseModel = sim.NoiseModel

// Simulate runs the circuit from |0…0⟩ and returns the final state.
func Simulate(c *Circuit) *State { return sim.NewState(c.NQubits).Run(c) }

// SampleIdeal draws shots noiseless measurement samples from c, simulating
// one register slot per qubit state c carries (see sim.Executor).
func SampleIdeal(c *Circuit, shots int, rng *rand.Rand) []uint64 {
	return sim.SampleIdeal(c, rng, shots)
}

// SampleNoisy draws shots samples under the noise model, spread over the
// given number of Pauli-fault trajectories.
func SampleNoisy(c *Circuit, nm *NoiseModel, shots, trajectories int, rng *rand.Rand) []uint64 {
	return sim.SampleNoisy(c, nm, shots, trajectories, rng)
}

// Executor samples one circuit many times, noisy and noiseless, from one
// fused program and one ideal run. Sample noise first: the ideal run then
// serves every noisy trajectory on its way to the end (see sim.Executor).
type Executor = sim.Executor

// NewExecutor lays c out on its register slots and fuses it for sampling.
func NewExecutor(c *Circuit) *Executor { return sim.NewExecutor(c) }

// NoiseFromDevice derives a noise model from a device calibration.
func NoiseFromDevice(d *Device) *NoiseModel { return sim.NoiseFromDevice(d) }
