package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// runTest runs one workload at test scale with a short measuring time.
func runTest(t *testing.T, workload string, seed uint64, traced bool, corrupt func(*core.RunResult)) result {
	t.Helper()
	r := newRunner(testConfig, seed, 0.01, traced)
	r.corrupt = corrupt
	res := r.report(workloads[workload](r))
	if corrupt == nil && !res.Correct {
		t.Fatalf("%s (traced=%v): %d of %d operations failed: %v", workload, traced, res.Failed, res.Attempted, r.failures)
	}
	return res
}

func names(ms []metric) []string {
	var n []string
	for _, m := range ms {
		n = append(n, m.Name)
	}
	sort.Strings(n)
	return n
}

func keys(res result) []string {
	var k []string
	for name := range res.Metrics {
		k = append(k, name)
	}
	sort.Strings(k)
	return k
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step
// with BENCHMARK.json, which the result lines are checked against.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, perfbench reports %v", spec.EndToEnd, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, perfbench reports %v", spec.PerLayer, perLayer)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; perfbench runs %d", ws, len(workloads))
	}
}

// TestEveryMetricEmittedWithUnit runs every workload untraced and
// traced and checks that each reports exactly its metric table, each
// metric with its unit, and that every end-to-end metric is non-zero.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res := runTest(t, name, 1, traced, nil)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := keys(res); !slices.Equal(got, names(want)) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, got, names(want))
			}
			for _, m := range want {
				v := res.Metrics[m.Name]
				if v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, want %q", name, m.Name, v.Unit, m.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestCorruptedResultIsCounted damages every simulated result and
// checks that the failures reach fail_frac (ok_frac below 1).
func TestCorruptedResultIsCounted(t *testing.T) {
	res := runTest(t, "fresh-kernels", 1, false, func(r *core.RunResult) {
		switch r.Spec.App {
		case analytics.BFS:
			r.Output.Hops[0]++
		case analytics.PR:
			r.Output.Ranks[0] += 1e-3
		}
	})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted results went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if ok := res.Metrics["ok_frac"].Value; ok >= 1 {
		t.Fatalf("ok_frac = %v with %d failures", ok, res.Failed)
	}
}

// TestSeedChangesGraphNotMetricSet checks that the seed reaches the
// Kronecker generator and leaves the reported metric set alone.
func TestSeedChangesGraphNotMetricSet(t *testing.T) {
	cfg := testConfig
	g1 := gen.Kronecker(cfg.KronScale, cfg.EdgeFactor, false, 8, kronSeed(1))
	g2 := gen.Kronecker(cfg.KronScale, cfg.EdgeFactor, false, 8, kronSeed(2))
	if slices.Equal(g1.Neighbors, g2.Neighbors) {
		t.Fatal("seeds 1 and 2 generate the same Kronecker graph")
	}
	a := runTest(t, "fresh-kernels", 1, false, nil)
	b := runTest(t, "fresh-kernels", 2, false, nil)
	if !slices.Equal(keys(a), keys(b)) {
		t.Fatalf("metric sets differ across seeds: %v vs %v", keys(a), keys(b))
	}
}

// TestDefaultSeedIsGenerateSeed pins seed 0 to the dataset generator's
// own Kron25 seed.
func TestDefaultSeedIsGenerateSeed(t *testing.T) {
	want := gen.Generate(gen.Kron25, gen.ScaleTest, false)
	got := gen.Kronecker(12, 8, false, 8, kronSeed(0)^uint64(gen.ScaleFull)^uint64(gen.ScaleTest))
	if !slices.Equal(got.Neighbors, want.Neighbors) {
		t.Fatal("kronSeed(0) is not gen.Generate's Kron25 seed")
	}
}
