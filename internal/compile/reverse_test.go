package compile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/graphs"
	"repro/internal/qaoa"
)

func TestReverseTraversalMappingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graphs.MustRandomRegular(10, 3, rng)
	prob := &qaoa.Problem{G: g, MaxCut: 1}
	spec, err := SpecFromMaxCut(prob, p1Params(0.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	dev := device.Tokyo20()
	o := Options{Rng: rng}.withDefaults()
	l, err := ReverseTraversalMapping(spec, dev, o)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for q := 0; q < 10; q++ {
		p := l.Phys(q)
		if p < 0 || p >= 20 || seen[p] {
			t.Fatalf("invalid layout %v", l)
		}
		seen[p] = true
	}
}

// Reverse traversal must reduce routing cost versus the raw random mapping
// it starts from, on average.
func TestReverseTraversalReducesSwaps(t *testing.T) {
	dev := device.Tokyo20()
	var randomSwaps, refinedSwaps int
	const trials = 10
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i) * 71))
		g := graphs.MustRandomRegular(14, 3, rng)
		prob := &qaoa.Problem{G: g, MaxCut: 1}

		naive, err := Compile(prob, p1Params(0.5, 0.2), dev, PresetNaive.Options(rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		opts := PresetNaive.Options(rand.New(rand.NewSource(int64(i))))
		opts.Mapper = MapReverse
		refined, err := Compile(prob, p1Params(0.5, 0.2), dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		randomSwaps += naive.SwapCount
		refinedSwaps += refined.SwapCount
	}
	if refinedSwaps >= randomSwaps {
		t.Errorf("reverse traversal swaps %d not below random %d", refinedSwaps, randomSwaps)
	}
}

// Semantics must hold through the reverse-traversal mapper like any other.
func TestReverseTraversalSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graphs.ErdosRenyi(7, 0.5, rng)
	prob := mustProblem(t, g)
	gamma, beta := 0.7, 0.25
	want := qaoa.ExpectationP1Analytic(g, gamma, beta)
	opts := PresetIC.Options(rng)
	opts.Mapper = MapReverse
	res, err := Compile(prob, p1Params(gamma, beta), device.Melbourne15(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := physicalExpectation(prob, res); math.Abs(got-want) > 1e-8 {
		t.Errorf("physical ⟨C⟩ = %v, want %v", got, want)
	}
}

func TestMapReverseString(t *testing.T) {
	if MapReverse.String() != "reverse-traversal" {
		t.Errorf("name = %q", MapReverse.String())
	}
}
