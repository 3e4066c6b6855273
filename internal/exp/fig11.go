package exp

import (
	"context"
	"math/rand"

	"repro/internal/compile"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/optimize"
	"repro/internal/qaoa"
	"repro/internal/sim"
)

// Fig11aConfig parameterizes the performance summary of Fig. 11(a): every
// methodology over a mixed 20-node workload on ibmq_20_tokyo, normalized by
// NAIVE. VIC uses a synthetic calibration (CNOT errors ~ N(1e-2, 0.5e-2) as
// in the paper).
type Fig11aConfig struct {
	Nodes             int
	InstancesPerPoint int // paper: 50 per (workload, parameter) point → 600 total
	EdgeProbs         []float64
	Degrees           []int
	Seed              int64
}

// DefaultFig11a returns the paper's configuration (600 instances total).
func DefaultFig11a() Fig11aConfig {
	return Fig11aConfig{
		Nodes:             20,
		InstancesPerPoint: 50,
		EdgeProbs:         []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		Degrees:           []int{3, 4, 5, 6, 7, 8},
		Seed:              11,
	}
}

// Fig11a reproduces the Fig. 11(a) table: mean circuit depth, gate count
// and compilation time of QAIM, IP, IC and VIC normalized by the NAIVE
// values, over the combined erdos-renyi + regular workload.
func Fig11a(cfg Fig11aConfig) (*Table, error) {
	dev := device.Tokyo20().WithRandomCalibration(rand.New(rand.NewSource(cfg.Seed)), 1e-2, 0.5e-2)
	presets := compile.Presets

	sums := make(map[compile.Preset]*metrics.Aggregate)
	var all = make(map[compile.Preset][]metrics.Sample)
	point := func(w Workload, param float64, seed int64) error {
		for i := 0; i < cfg.InstancesPerPoint; i++ {
			rng := instanceRNG(seed, i)
			g, err := sampleGraph(w, cfg.Nodes, param, rng)
			if err != nil {
				return err
			}
			for _, preset := range presets {
				s, _, err := compileSample(context.Background(), g, dev, preset, instanceRNG(seed, i*100+int(preset)), 0)
				if err != nil {
					return err
				}
				all[preset] = append(all[preset], s)
			}
		}
		return nil
	}
	for _, p := range cfg.EdgeProbs {
		if err := point(ErdosRenyi, p, cfg.Seed+int64(p*1000)); err != nil {
			return nil, err
		}
	}
	for _, d := range cfg.Degrees {
		if err := point(Regular, float64(d), cfg.Seed+int64(d)*41); err != nil {
			return nil, err
		}
	}
	for p, ss := range all {
		agg := metrics.Collect(ss)
		sums[p] = &agg
	}

	naive := sums[compile.PresetNaive]
	t := &Table{
		ID:      "fig11a",
		Title:   "performance normalized by NAIVE, 20-node mixed workload on tokyo",
		Columns: []string{"depth", "gates", "time"},
	}
	for _, preset := range []compile.Preset{compile.PresetNaive, compile.PresetQAIM, compile.PresetIP, compile.PresetIC, compile.PresetVIC} {
		a := sums[preset]
		t.Add(preset.String(),
			metrics.Ratio(a.Depth.Mean, naive.Depth.Mean),
			metrics.Ratio(a.GateCount.Mean, naive.GateCount.Mean),
			metrics.Ratio(a.CompileSec.Mean, naive.CompileSec.Mean))
	}
	return t, nil
}

// Fig11bConfig parameterizes the hardware-validation ARG experiment of
// Fig. 11(b), run here against the noisy simulator standing in for
// ibmq_16_melbourne (see DESIGN.md substitutions).
type Fig11bConfig struct {
	Nodes         int // paper: 12
	Instances     int // per workload (paper: 20)
	EdgeProb      float64
	RegularDegree int
	Shots         int // paper: 40960
	Trajectories  int // independent noise trajectories the shots spread over
	Seed          int64
}

// DefaultFig11b returns the paper's configuration with a trajectory count
// that keeps the noisy simulation tractable.
func DefaultFig11b() Fig11bConfig {
	return Fig11bConfig{
		Nodes:         12,
		Instances:     20,
		EdgeProb:      0.5,
		RegularDegree: 6,
		Shots:         40960,
		Trajectories:  64,
		Seed:          1111,
	}
}

// Fig11b reproduces Fig. 11(b): the mean Approximation Ratio Gap of
// QAIM-, IP-, IC- and VIC-compiled circuits executed on the noisy melbourne
// model, over 12-node erdos-renyi and 6-regular MaxCut instances with
// analytically optimized p=1 angles.
func Fig11b(cfg Fig11bConfig) (*Table, error) {
	dev := device.Melbourne15()
	nm := sim.NoiseFromDevice(dev)
	presets := []compile.Preset{compile.PresetQAIM, compile.PresetIP, compile.PresetIC, compile.PresetVIC}

	type accum struct {
		sum float64
		n   int
	}
	args := make(map[compile.Preset]*accum)
	for _, p := range presets {
		args[p] = &accum{}
	}

	run := func(w Workload, param float64, seed int64) error {
		for i := 0; i < cfg.Instances; i++ {
			rng := instanceRNG(seed, i)
			g, err := sampleGraph(w, cfg.Nodes, param, rng)
			if err != nil {
				return err
			}
			prob, err := qaoa.NewMaxCut(g)
			if err != nil {
				return err
			}
			if prob.MaxCut == 0 {
				continue
			}
			gamma, beta, _, err := optimize.MaximizeP1(func(gm, bt float64) float64 {
				return qaoa.ExpectationP1Analytic(g, gm, bt)
			}, 20)
			if err != nil {
				return err
			}
			params := qaoa.Params{Gamma: []float64{gamma}, Beta: []float64{beta}}
			for _, preset := range presets {
				opts := preset.Options(instanceRNG(seed, i*100+int(preset)))
				res, err := compile.Compile(prob, params, dev, opts)
				if err != nil {
					return err
				}
				arg, err := MeasureARG(prob, res, nm, cfg.Shots, cfg.Trajectories, instanceRNG(seed, i*100+int(preset)+50))
				if err != nil {
					return err
				}
				args[preset].sum += arg
				args[preset].n++
			}
		}
		return nil
	}
	if err := run(ErdosRenyi, cfg.EdgeProb, cfg.Seed); err != nil {
		return nil, err
	}
	if cfg.Nodes*cfg.RegularDegree%2 == 0 {
		if err := run(Regular, float64(cfg.RegularDegree), cfg.Seed+999); err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:      "fig11b",
		Title:   "mean approximation-ratio gap (%) on noisy melbourne model",
		Columns: []string{"ARG %"},
	}
	for _, preset := range presets {
		a := args[preset]
		v := nan()
		if a.n > 0 {
			v = a.sum / float64(a.n)
		}
		t.Add(preset.String(), v)
	}
	return t, nil
}

// MeasureARG computes the paper's ARG metric for one compiled circuit:
// the approximation ratio rh from noisy sampling under nm and r0 from
// noiseless sampling of the compiled circuit, both with the same shot
// budget, combined as 100·(r0−rh)/r0. One Executor serves both
// measurements. Noise is sampled first, so the executor's one ideal run
// serves every trajectory's checkpoint on its way to the end, and the
// noiseless samples then draw from the final state it reached.
func MeasureARG(prob *qaoa.Problem, res *compile.Result, nm *sim.NoiseModel, shots, trajectories int, rng *rand.Rand) (float64, error) {
	ex := sim.NewExecutor(res.Circuit)
	rh, err := approxRatioPhysical(prob, res, ex.SampleNoisy(nm, shots, trajectories, rng))
	if err != nil {
		return 0, err
	}
	r0, err := approxRatioPhysical(prob, res, ex.SampleIdeal(rng, shots))
	if err != nil {
		return 0, err
	}
	return qaoa.ARG(r0, rh), nil
}

func approxRatioPhysical(prob *qaoa.Problem, res *compile.Result, physical []uint64) (float64, error) {
	logical := make([]uint64, len(physical))
	for i, y := range physical {
		logical[i] = res.ExtractLogical(y)
	}
	return qaoa.ApproximationRatio(prob, logical)
}
