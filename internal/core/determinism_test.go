package core_test

import (
	"fmt"
	"strings"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
)

// formatResult renders every statistic a run produces into a canonical
// string. Spec is deliberately excluded (it holds pointers whose
// rendering would differ between processes); everything else is plain
// values, so two equal results format byte-identically.
func formatResult(r *core.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "wss=%d mem=%d\n", r.WSSBytes, r.MemoryBytes)
	fmt.Fprintf(&b, "cycles pre=%d init=%d kernel=%d total=%d\n",
		r.PreprocessCycles, r.InitCycles, r.KernelCycles, r.TotalCycles)
	fmt.Fprintf(&b, "init=%+v\n", r.Init)
	fmt.Fprintf(&b, "kernel=%+v\n", r.Kernel)
	fmt.Fprintf(&b, "os=%+v\n", r.OS)
	for _, a := range r.Arrays {
		fmt.Fprintf(&b, "array %+v\n", a)
	}
	fmt.Fprintf(&b, "huge prop=%d total=%d mapped=%d share=%.9f\n",
		r.PropHugeBytes, r.TotalHugeBytes, r.MappedBytes, r.HugeShareOfFootprint())
	for _, s := range r.Supply {
		fmt.Fprintf(&b, "supply %+v\n", s)
	}
	fmt.Fprintf(&b, "output iters=%d hops=%v\n", r.Output.Iterations, r.Output.Hops)
	return b.String()
}

// TestRunIsDeterministic runs the same stressed BFS+THP configuration
// twice in one process and requires byte-identical statistics. The
// environment deliberately stacks every nondeterminism-prone subsystem:
// an aged fragmented node, memhog pressure, single-use page cache,
// compaction-vs-reclaim interleavings, and supply-timeline sampling.
// This is the regression test for the project's central contract —
// identical call sequences produce identical physical layouts — which
// simlint enforces statically and the simcheck audits enforce
// structurally.
func TestRunIsDeterministic(t *testing.T) {
	env := core.Pressured(12 << 20)
	env.FragLevel = 0.3
	env.PageCacheBytes = 2 << 20
	env.Seed = 42

	spec := quickSpec(t, analytics.BFS, core.THPAlways(), env)
	spec.SampleSupplyEvery = 100_000
	spec.SimulatePageTables = true

	run := func() string {
		t.Helper()
		res, err := core.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return formatResult(res)
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("identical specs produced different stats:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "supply ") {
		t.Fatal("supply timeline was not sampled; the test lost coverage")
	}
}

// TestRunDeterminismAcrossSeeds is the control: different seeds must
// change the environment layout (otherwise the seed is not actually
// threaded through and the determinism test proves nothing).
func TestRunDeterminismAcrossSeeds(t *testing.T) {
	// Same stressed environment as TestRunIsDeterministic: huge page
	// allocation must partially succeed, because when every region is
	// poisoned the stats degenerate to pure 4K behaviour, which is
	// insensitive to where the poison sits.
	env := core.Pressured(12 << 20)
	env.FragLevel = 0.3
	env.PageCacheBytes = 2 << 20
	env.Seed = 1 // stride phase 1 (see workload.AgeSystem)

	specA := quickSpec(t, analytics.BFS, core.THPAlways(), env)
	specA.SampleSupplyEvery = 100_000
	resA, err := core.Run(specA)
	if err != nil {
		t.Fatal(err)
	}

	env.Seed = 2 // stride phase 6: a different set of poisoned regions
	specB := quickSpec(t, analytics.BFS, core.THPAlways(), env)
	specB.SampleSupplyEvery = 100_000
	resB, err := core.Run(specB)
	if err != nil {
		t.Fatal(err)
	}

	// The graph kernel's answer must not depend on the seed...
	if fmt.Sprintf("%v", resA.Output.Hops) != fmt.Sprintf("%v", resB.Output.Hops) {
		t.Fatal("BFS output changed with the environment seed")
	}
	// ...but the aged layout (and thus the run's physical behaviour)
	// should: AgeSystem hashes the seed into poison placement.
	if formatResult(resA) == formatResult(resB) {
		t.Fatal("seeds 1 and 2 produced identical stats; seed is not threaded through the environment")
	}
}
