package core_test

import (
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/cache"
	"graphmem/internal/core"
	"graphmem/internal/cost"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/oskernel"
	"graphmem/internal/reorder"
	"graphmem/internal/tlb"
)

// quickSpec builds a fast small-scale spec (scaled TLB so capacity
// effects still appear).
func quickSpec(t testing.TB, app analytics.App, p core.Policy, env core.Environment) core.RunSpec {
	t.Helper()
	model := cost.Fast()
	return core.RunSpec{
		Graph:   gen.Generate(gen.Kron25, gen.ScaleTest, app == analytics.SSSP),
		App:     app,
		Reorder: reorder.Identity,
		Order:   analytics.Natural,
		Policy:  p,
		Env:     env,
		TLB:     tlb.Scaled(tlb.Haswell(), 16),
		Cache:   cache.Scaled(cache.Haswell(), 16),
		Cost:    &model,
	}
}

// widePropGraph returns a graph whose property array spans several 2MB
// regions (1M vertices) but with few edges, so huge-page placement can
// be exercised without a long kernel simulation.
func widePropGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 1 << 20
	edges := make([]graph.Edge, 1<<14)
	state := uint64(12345)
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state>>33) % n
	}
	for i := range edges {
		edges[i] = graph.Edge{Src: next(), Dst: next()}
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wideSpec is quickSpec on the wide-property graph.
func wideSpec(t *testing.T, p core.Policy, env core.Environment) core.RunSpec {
	t.Helper()
	s := quickSpec(t, analytics.BFS, p, env)
	s.Graph = widePropGraph(t)
	return s
}

func TestPolicyConstructors(t *testing.T) {
	if core.Base4K().Mode != oskernel.ModeNever {
		t.Fatal("Base4K mode")
	}
	if core.THPAlways().Mode != oskernel.ModeAlways {
		t.Fatal("THPAlways mode")
	}
	p := core.PerStructure("edge")
	if !p.AdviseEdge || p.AdviseVertex || p.Mode != oskernel.ModeMadvise {
		t.Fatalf("PerStructure = %+v", p)
	}
	s := core.SelectiveTHP(0.4)
	if s.PropPercent != 0.4 || s.Name != "sel-40" {
		t.Fatalf("SelectiveTHP = %+v", s)
	}
}

func TestSelectiveTHPValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SelectiveTHP(%v) did not panic", bad)
				}
			}()
			core.SelectiveTHP(bad)
		}()
	}
}

func TestPerStructureUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown structure did not panic")
		}
	}()
	core.PerStructure("nope")
}

func TestRunRejectsNilGraph(t *testing.T) {
	if _, err := core.Run(core.RunSpec{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestRunProducesCorrectOutput(t *testing.T) {
	spec := quickSpec(t, analytics.BFS, core.Base4K(), core.FreshBoot())
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := analytics.NativeBFS(spec.Graph, spec.Graph.MaxDegreeVertex())
	for i := range want {
		if r.Output.Hops[i] != want[i] {
			t.Fatalf("hops[%d] = %d, want %d", i, r.Output.Hops[i], want[i])
		}
	}
	if r.KernelCycles == 0 || r.InitCycles == 0 {
		t.Fatalf("cycles: init=%d kernel=%d", r.InitCycles, r.KernelCycles)
	}
	if r.TotalCycles != r.PreprocessCycles+r.InitCycles+r.KernelCycles {
		t.Fatal("total cycles inconsistent")
	}
}

func TestTHPBeatsBaselineWhenFree(t *testing.T) {
	base, err := core.Run(wideSpec(t, core.Base4K(), core.FreshBoot()))
	if err != nil {
		t.Fatal(err)
	}
	thp, err := core.Run(wideSpec(t, core.THPAlways(), core.FreshBoot()))
	if err != nil {
		t.Fatal(err)
	}
	if thp.KernelCycles >= base.KernelCycles {
		t.Fatalf("THP (%d) not faster than 4K (%d)", thp.KernelCycles, base.KernelCycles)
	}
	if thp.TotalHugeBytes == 0 || base.TotalHugeBytes != 0 {
		t.Fatalf("huge bytes: thp=%d base=%d", thp.TotalHugeBytes, base.TotalHugeBytes)
	}
}

func TestSelectiveAdvisesOnlyPropPrefix(t *testing.T) {
	spec := wideSpec(t, core.SelectiveTHP(0.5), core.FreshBoot())
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.PropHugeBytes == 0 {
		t.Fatal("selective policy gave the property array no huge pages")
	}
	if r.TotalHugeBytes != r.PropHugeBytes {
		t.Fatalf("huge pages outside the property array: total=%d prop=%d",
			r.TotalHugeBytes, r.PropHugeBytes)
	}
	if r.PropHugeBytes >= uint64(spec.Graph.N)*8 {
		t.Fatal("selective 50% covered the whole property array")
	}
}

func TestReorderChargesPreprocessing(t *testing.T) {
	spec := quickSpec(t, analytics.BFS, core.Base4K(), core.FreshBoot())
	spec.Reorder = reorder.DBG
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.PreprocessCycles == 0 {
		t.Fatal("DBG charged no preprocessing time")
	}
	// Correctness after reordering: reachable count must match the
	// original graph (hop values are permutation-equivariant).
	orig := analytics.NativeBFS(spec.Graph, spec.Graph.MaxDegreeVertex())
	reach := func(h []int64) int {
		n := 0
		for _, x := range h {
			if x >= 0 {
				n++
			}
		}
		return n
	}
	if reach(orig) != reach(r.Output.Hops) {
		t.Fatalf("reachable %d != %d after DBG", reach(r.Output.Hops), reach(orig))
	}
}

func TestPressureReducesHugeShare(t *testing.T) {
	fresh, err := core.Run(wideSpec(t, core.THPAlways(), core.FreshBoot()))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := core.Run(wideSpec(t, core.THPAlways(), core.Pressured(0)))
	if err != nil {
		t.Fatal(err)
	}
	if tight.TotalHugeBytes >= fresh.TotalHugeBytes {
		t.Fatalf("pressure did not reduce huge usage: %d >= %d",
			tight.TotalHugeBytes, fresh.TotalHugeBytes)
	}
}

func TestOversubscriptionSwaps(t *testing.T) {
	// The ScaleTest working set is ~230KB; a 64KB deficit oversubscribes
	// it by the same ~5% proportion as the paper's −0.5GB on 8.5GB.
	r, err := core.Run(quickSpec(t, analytics.BFS, core.Base4K(), core.Pressured(-64<<10)))
	if err != nil {
		t.Fatal(err)
	}
	if r.OS.SwapIns == 0 || r.OS.SwapOuts == 0 {
		t.Fatalf("no swap under oversubscription: %+v", r.OS)
	}
}

func TestPageCacheInterference(t *testing.T) {
	// With the page cache squatting on the slack, THP gets fewer huge
	// pages than with tmpfs-style loading.
	env := core.Pressured(2 << 20)
	clean, err := core.Run(wideSpec(t, core.THPAlways(), env))
	if err != nil {
		t.Fatal(err)
	}
	env.PageCacheBytes = 6 << 20
	dirty, err := core.Run(wideSpec(t, core.THPAlways(), env))
	if err != nil {
		t.Fatal(err)
	}
	if dirty.TotalHugeBytes >= clean.TotalHugeBytes {
		t.Fatalf("page cache did not suppress huge pages: %d >= %d",
			dirty.TotalHugeBytes, clean.TotalHugeBytes)
	}
}

func TestAllAppsRunUnderAllPolicies(t *testing.T) {
	for _, app := range analytics.AllApps {
		for _, p := range []core.Policy{core.Base4K(), core.THPAlways(), core.SelectiveTHP(0.6)} {
			r, err := core.Run(quickSpec(t, app, p, core.FreshBoot()))
			if err != nil {
				t.Fatalf("%s/%s: %v", app, p.Name, err)
			}
			if r.KernelCycles == 0 {
				t.Fatalf("%s/%s: empty kernel", app, p.Name)
			}
		}
	}
}

func TestHugeShareOfFootprint(t *testing.T) {
	r := core.RunResult{MappedBytes: 100, TotalHugeBytes: 25}
	if r.HugeShareOfFootprint() != 0.25 {
		t.Fatal("share wrong")
	}
	var zero core.RunResult
	if zero.HugeShareOfFootprint() != 0 {
		t.Fatal("zero share wrong")
	}
}

func TestAutoTHPTargetsHotRegions(t *testing.T) {
	// Hubs scattered: prefix selection is useless, but the automatic
	// profiler finds hot regions wherever they are.
	spec := wideSpec(t, core.AutoTHP(4<<20), core.FreshBoot())
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.PropHugeBytes == 0 || r.PropHugeBytes > 4<<20 {
		t.Fatalf("auto plan mapped %d huge bytes, want (0,4MB]", r.PropHugeBytes)
	}
	if r.TotalHugeBytes != r.PropHugeBytes {
		t.Fatal("auto policy advised outside the property array")
	}
}

func TestAutoTHPCoverageRuns(t *testing.T) {
	spec := wideSpec(t, core.AutoTHPCoverage(0.5), core.FreshBoot())
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.PropHugeBytes == 0 {
		t.Fatal("coverage plan mapped nothing")
	}
}

func TestAutoTHPValidation(t *testing.T) {
	for _, f := range []func(){
		func() { core.AutoTHP(0) },
		func() { core.AutoTHPCoverage(0) },
		func() { core.AutoTHPCoverage(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid auto policy did not panic")
				}
			}()
			f()
		}()
	}
}

func TestBaselineEnginesRun(t *testing.T) {
	for _, p := range []core.Policy{core.IngensLike(), core.HawkEyeLike()} {
		r, err := core.Run(wideSpec(t, p, core.FreshBoot()))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Both engines refuse fault-time huge pages; promotion is
		// asynchronous, so huge usage stays behind Linux THP's.
		if r.OS.FaultsHuge != 0 {
			t.Fatalf("%s allocated huge pages at fault time", p.Name)
		}
	}
}

func TestCCRunsUnderPolicies(t *testing.T) {
	spec := quickSpec(t, analytics.CC, core.THPAlways(), core.FreshBoot())
	r, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := analytics.NativeCC(spec.Graph)
	for i := range want {
		if r.Output.Labels[i] != want[i] {
			t.Fatalf("label[%d] mismatch", i)
		}
	}
}

// TestRandomizedConfigStress drives random (policy, environment,
// reorder, order) combinations at tiny scale and checks the system-wide
// invariants that must hold for every one of them: the algorithm output
// matches the native reference, cycle accounting is consistent, and the
// physical allocator survives an invariant audit.
func TestRandomizedConfigStress(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	want := analytics.NativeBFS(g, g.MaxDegreeVertex())
	reach := 0
	for _, h := range want {
		if h >= 0 {
			reach++
		}
	}

	policies := []core.Policy{
		core.Base4K(), core.THPAlways(), core.SelectiveTHP(0.3),
		core.PerStructure("edge"), core.IngensLike(), core.HawkEyeLike(),
		core.AutoTHP(2 << 20),
	}
	envs := []core.Environment{
		core.FreshBoot(),
		core.Pressured(0),
		core.Pressured(-16 << 10),
		core.Fragmented(1<<20, 0.75),
		{AgedFraction: 0.5, PressureDelta: 2 << 20, FragLevel: 0.25, PageCacheBytes: 1 << 20},
	}
	methods := []reorder.Method{reorder.Identity, reorder.DBG, reorder.Random, reorder.FullSort}
	orders := []analytics.AllocOrder{analytics.Natural, analytics.PropFirst}

	state := uint64(2024)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	model := cost.Fast()
	for i := 0; i < 25; i++ {
		p := policies[next(len(policies))]
		e := envs[next(len(envs))]
		mth := methods[next(len(methods))]
		ord := orders[next(len(orders))]
		r, err := core.Run(core.RunSpec{
			Graph: g, App: analytics.BFS, Reorder: mth, Order: ord,
			Policy: p, Env: e,
			TLB:   tlb.Scaled(tlb.Haswell(), 16),
			Cache: cache.Scaled(cache.Haswell(), 16),
			Cost:  &model,
		})
		if err != nil {
			t.Fatalf("iter %d (%s/%v/%s/%v): %v", i, p.Name, e, mth, ord, err)
		}
		got := 0
		for _, h := range r.Output.Hops {
			if h >= 0 {
				got++
			}
		}
		if got != reach {
			t.Fatalf("iter %d (%s): reached %d, want %d", i, p.Name, got, reach)
		}
		if r.TotalCycles != r.PreprocessCycles+r.InitCycles+r.KernelCycles {
			t.Fatalf("iter %d: cycle accounting broken", i)
		}
		if r.MappedBytes == 0 || r.MappedBytes < r.TotalHugeBytes {
			t.Fatalf("iter %d: mapped/huge accounting broken: %d/%d",
				i, r.MappedBytes, r.TotalHugeBytes)
		}
	}
}

func TestHugetlbSelectiveImmuneToFragmentation(t *testing.T) {
	// Under total fragmentation, opportunistic selective THP gets
	// nothing, but the hugetlbfs reservation — made at boot — delivers
	// the full advised prefix.
	env := core.Fragmented(2<<20, 1.0)
	thp, err := core.Run(wideSpec(t, core.SelectiveTHP(0.5), env))
	if err != nil {
		t.Fatal(err)
	}
	htlb, err := core.Run(wideSpec(t, core.HugetlbSelective(0.5), env))
	if err != nil {
		t.Fatal(err)
	}
	if htlb.PropHugeBytes == 0 {
		t.Fatal("hugetlb reservation delivered no huge pages")
	}
	if htlb.PropHugeBytes <= thp.PropHugeBytes {
		t.Fatalf("hugetlb %d not above opportunistic %d under total fragmentation",
			htlb.PropHugeBytes, thp.PropHugeBytes)
	}
	if htlb.TotalCycles >= thp.TotalCycles {
		t.Fatal("guaranteed huge pages did not help under total fragmentation")
	}
}

// TestDeterminism: identical specs produce bit-identical results —
// cycles, stats, and memory layouts. This is what makes every table in
// EXPERIMENTS.md exactly reproducible.
func TestDeterminism(t *testing.T) {
	spec := func() core.RunSpec {
		s := quickSpec(t, analytics.BFS, core.THPAlways(), core.Fragmented(1<<20, 0.5))
		s.Reorder = reorder.DBG
		return s
	}
	a, err := core.Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("cycles differ: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
	if a.OS != b.OS {
		t.Fatalf("kernel stats differ:\n%+v\n%+v", a.OS, b.OS)
	}
	if a.TotalHugeBytes != b.TotalHugeBytes || a.PropHugeBytes != b.PropHugeBytes {
		t.Fatal("huge page layout differs")
	}
}
