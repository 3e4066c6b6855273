package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// opList describes a session's op list, one string per op, so two boots
// can be compared without comparing pointers.
func opList(s session) []string {
	var out []string
	switch s := s.(type) {
	case *fig11bSession:
		for _, op := range s.ops {
			out = append(out, fmt.Sprint(op.inst.prob.G.Edges(), op.inst.params, op.preset, op.compileSeed, op.measureSeed))
		}
	case *hybridSession:
		for _, op := range s.ops {
			out = append(out, fmt.Sprint(op.prob.G.Edges(), op.evalSeed, op.optSeed))
		}
	case *qaoadSession:
		for _, r := range append(append([]request(nil), s.base...), s.reqs...) {
			out = append(out, string(r.body)+r.class)
		}
	}
	return out
}

// TestSameSeedRepeats boots every workload twice at one seed, runs one
// pass of each, and requires identical op lists, identical quality
// metrics (including the loop's evaluations per run) and clean checks.
func TestSameSeedRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one pass of every workload twice")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var lists [2][]string
			var quals [2]quality
			for i := range lists {
				s, err := w.boot(ctx, 7)
				if err != nil {
					t.Fatal(err)
				}
				rec := measure(ctx, s, 0, nil, 0)
				if rec.failed > 0 || rec.passes != 1 {
					t.Fatalf("boot %d: %d failed checks over %d passes: %v", i, rec.failed, rec.passes, rec.errs)
				}
				if n := len(rec.lat); n-rank(n, w.tailP) < 10 {
					t.Errorf("op_tail_ms at p%v leaves %d of a pass's %d ops beyond it, want at least 10", w.tailP, n-rank(n, w.tailP), n)
				}
				lists[i], quals[i] = opList(s), s.quality()
				s.close()
			}
			if len(lists[0]) == 0 || !reflect.DeepEqual(lists[0], lists[1]) {
				t.Errorf("op lists differ between two boots at one seed")
			}
			if quals[0] != quals[1] {
				t.Errorf("quality differs between two runs at one seed: %+v vs %+v", quals[0], quals[1])
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for _, c := range []struct {
		json []def
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []metricDef
		for _, d := range c.json {
			got = append(got, metricDef{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json lists %v, command prints %v", got, c.defs)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestStepMedians(t *testing.T) {
	r := &recorder{lat: []time.Duration{3, 1, 2, 10, 40, 7}, stepEnds: []int{3, 3, 5, 6}}
	want := []time.Duration{2, 2, 2, 25, 25, 7}
	if got := r.stepMedians(); !reflect.DeepEqual(got, want) {
		t.Errorf("stepMedians = %v, want %v", got, want)
	}
}
