package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"time"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
)

// kronSeed maps the benchmark seed to the Kronecker generator's seed.
// Seed 0 gives the seed gen.Generate uses for Kron25 at full scale, so
// at KronScale 20 and EdgeFactor 16 the default input is that dataset.
func kronSeed(seed uint64) uint64 {
	const d = gen.Kron25
	base := uint64(0xC0FFEE) ^ uint64(len(d))<<32 ^ uint64(d[0])<<16 ^ uint64(gen.ScaleFull)
	return base ^ seed*0x9E3779B97F4A7C15
}

// paperBFSKron25GB is Table 2's Kron25 BFS footprint and highPressureGB
// the paper's "+0.5 GB" level; internal/exp scales the level to the
// simulated working set through them, and staged-node does the same.
const (
	paperBFSKron25GB = 8.5
	highPressureGB   = 0.5
)

// cell is one simulated configuration of a graph workload.
type cell struct {
	id    string
	class string // "thp", "4k" or "sel": which kernel.ns_per_access it feeds
	spec  core.RunSpec

	// ref holds the simulated counts of the cell's first run, which
	// uses the fresh checkpoint; runs on a loaded checkpoint must
	// reproduce them.
	ref *simCounts
	// want is the native kernel's output on the cell's graph.
	wantHops  []int64
	wantRanks []float64
	wantIters int
}

func runOptions(g *graph.Graph, prIters int) analytics.RunOptions {
	return analytics.RunOptions{Root: g.MaxDegreeVertex(), PREpsilon: 1e-4, PRMaxIters: prIters}
}

// freshKernelCells is fresh-kernels: BFS and PR, each under THP always
// and 4KB pages, on a fresh-booted default-sized (4×WSS) node.
func freshKernelCells(g *graph.Graph) []*cell {
	var cells []*cell
	for _, app := range []analytics.App{analytics.BFS, analytics.PR} {
		for _, p := range []struct {
			class string
			pol   core.Policy
		}{{"thp", core.THPAlways()}, {"4k", core.Base4K()}} {
			cells = append(cells, &cell{
				id:    fmt.Sprintf("%s/%s", app, p.class),
				class: p.class,
				spec: core.RunSpec{
					Graph: g, App: app, Reorder: reorder.Identity, Order: analytics.Natural,
					Policy: p.pol, Env: core.FreshBoot(), Run: runOptions(g, prIters),
				},
			})
		}
	}
	return cells
}

// stagedNodeCells is staged-node: BFS under the paper's high pressure
// on a large sharded node, once under THP always and once DBG-reordered
// with selective THP on the hot property prefix.
func stagedNodeCells(cfg config, g, dbg *graph.Graph, dbgCost reorder.Cost) []*cell {
	wss := float64(analytics.WSSBytes(analytics.BFS, g))
	env := core.Pressured(int64(highPressureGB * wss / paperBFSKron25GB))
	env.MemoryBytes = cfg.StagedNodeBytes
	thp := core.RunSpec{
		Graph: g, App: analytics.BFS, Reorder: reorder.Identity, Order: analytics.Natural,
		Policy: core.THPAlways(), Env: env, Shards: stagedShards, Run: runOptions(g, prIters),
	}
	sel := thp
	sel.Graph, sel.Reorder, sel.PreReorderCost = dbg, reorder.DBG, &dbgCost
	sel.Policy = core.SelectiveTHP(selPct)
	sel.Run = runOptions(dbg, prIters)
	return []*cell{
		{id: "bfs/thp", class: "thp", spec: thp},
		{id: "bfs/dbg-" + sel.Policy.Name, class: "sel", spec: sel},
	}
}

// simCounts are a run's simulated statistics: deterministic, so a
// change that only speeds up the simulator leaves every one identical.
type simCounts struct {
	InitAccesses      uint64   `json:"init_accesses"`
	KernelAccesses    uint64   `json:"kernel_accesses"`
	KernelCycles      uint64   `json:"kernel_cycles"`
	TotalCycles       uint64   `json:"total_cycles"`
	TranslationCycles uint64   `json:"translation_cycles"`
	TLBL1Misses       uint64   `json:"tlb_l1_misses"`
	STLBMisses        uint64   `json:"stlb_misses"`
	WalkCycles        uint64   `json:"walk_cycles"`
	CacheL1Misses     uint64   `json:"cache_l1_misses"`
	LLCMisses         uint64   `json:"llc_misses"`
	FaultsHuge        uint64   `json:"faults_huge"`
	HugeFallbacks     uint64   `json:"huge_fallbacks"`
	CompactionRuns    uint64   `json:"compaction_runs"`
	HugeBytes         uint64   `json:"huge_bytes"`
	MappedBytes       uint64   `json:"mapped_bytes"`
	ShardKernelCycles []uint64 `json:"shard_kernel_cycles,omitempty"`
}

func countsOf(res *core.RunResult) simCounts {
	k := res.Kernel
	return simCounts{
		InitAccesses:      res.Init.Accesses,
		KernelAccesses:    k.Accesses,
		KernelCycles:      res.KernelCycles,
		TotalCycles:       res.TotalCycles,
		TranslationCycles: k.TranslationCycles,
		TLBL1Misses:       k.TLB.L1Misses,
		STLBMisses:        k.TLB.STLBMisses,
		WalkCycles:        k.TLB.WalkCycles,
		CacheL1Misses:     k.Cache.L1Misses,
		LLCMisses:         k.Cache.LLCMiss,
		FaultsHuge:        res.OS.FaultsHuge,
		HugeFallbacks:     res.OS.HugeFallbacks,
		CompactionRuns:    res.OS.CompactionRuns,
		HugeBytes:         res.TotalHugeBytes,
		MappedBytes:       res.MappedBytes,
		ShardKernelCycles: res.ShardKernelCycles,
	}
}

func (a simCounts) equal(b simCounts) bool { return reflect.DeepEqual(a, b) }

// cellOut is one cell's host timings and simulated counts.
type cellOut struct {
	ID         string        `json:"id"`
	Class      string        `json:"class"`
	App        string        `json:"app"`
	Wall       time.Duration `json:"wall_ns"`
	Prepare    time.Duration `json:"prepare_ns"`
	Save       time.Duration `json:"save_ns"`
	Load       time.Duration `json:"load_ns"`
	Fork       time.Duration `json:"fork_ns"`
	Run        time.Duration `json:"run_ns"`
	Check      time.Duration `json:"check_ns"`
	ImageBytes int64         `json:"image_bytes"`
	Loaded     bool          `json:"loaded"`
	LoadErr    string        `json:"load_err,omitempty"`
	Counts     simCounts     `json:"counts"`
	Host       hostDelta     `json:"host"`
	Coverage   float64       `json:"coverage,omitempty"`
}

// runCell takes one cell through Prepare → Save → LoadCheckpoint →
// Fork → Run and checks the result. The run uses the loaded checkpoint
// when the load succeeds and the fresh one otherwise, as the
// checkpoint store does. The cell's first run always uses the fresh
// checkpoint and records the cell's reference counts.
func (r *runner) runCell(c *cell) (out cellOut) {
	out = cellOut{ID: c.id, Class: c.class, App: string(c.spec.App)}
	h0 := readHost()
	t0 := time.Now()
	top := r.rec.begin("cell", c.id, 0)
	defer func() {
		r.rec.end(top)
		out.Wall = time.Since(t0)
		out.Host = hostBetween(h0, readHost())
		if r.rec != nil {
			out.Coverage = r.rec.coverage(top)
		}
	}()

	call := r.start("core.prepare", c.id, top)
	cp, err := core.Prepare(c.spec)
	var ok bool
	if out.Prepare, ok = call.done(err); !ok {
		return out
	}
	var img bytes.Buffer
	key := fmt.Sprintf("perfbench/%s/%d", c.id, r.seed)
	call = r.start("ckpt.save", c.id, top)
	out.ImageBytes, err = cp.Save(&img, key)
	if out.Save, ok = call.done(err); !ok {
		return out
	}
	// A rejected load is the outcome the ckpt.load metrics count, not
	// a failed operation: the run continues on the fresh checkpoint.
	call = r.start("ckpt.load", c.id, top)
	loaded, lerr := core.LoadCheckpoint(c.spec, key, bytes.NewReader(img.Bytes()))
	out.Load, _ = call.done(nil)
	img = bytes.Buffer{}
	use := cp
	switch {
	case lerr != nil:
		out.LoadErr = lerr.Error()
	case c.ref == nil:
		out.Loaded = true // the first run stays on the fresh checkpoint
	default:
		out.Loaded, use = true, loaded
	}
	cp, loaded = nil, nil // only use stays live through the run

	call = r.start("core.fork", c.id, top)
	_, _, err = use.Fork()
	if out.Fork, ok = call.done(err); !ok {
		return out
	}
	call = r.start("core.run", c.id, top)
	res, err := use.Run()
	if out.Run, ok = call.done(err); !ok {
		return out
	}
	if r.corrupt != nil {
		r.corrupt(res)
	}
	out.Counts = countsOf(res)

	call = r.start("check", c.id, top)
	r.checkOutput(c, res)
	if c.ref == nil {
		ref := out.Counts
		c.ref = &ref
	} else if out.Loaded {
		r.check(c.id+": loaded-checkpoint run differs from the fresh checkpoint's counts", out.Counts.equal(*c.ref))
	}
	out.Check = call.stop()
	return out
}

// checkOutput compares a simulated kernel's output with the native
// kernel's on the same graph and options.
func (r *runner) checkOutput(c *cell, res *core.RunResult) {
	switch c.spec.App {
	case analytics.BFS:
		r.check(c.id+": BFS hops differ from NativeBFS", slices.Equal(res.Output.Hops, c.wantHops))
	case analytics.PR:
		ok := res.Output.Iterations == c.wantIters && len(res.Output.Ranks) == len(c.wantRanks)
		for i := 0; ok && i < len(c.wantRanks); i++ {
			ok = math.Abs(res.Output.Ranks[i]-c.wantRanks[i]) <= 1e-12
		}
		r.check(c.id+": PR ranks differ from NativePR", ok)
	default:
		r.check(c.id+": no native reference for "+string(c.spec.App), false)
	}
}

// setReference computes each cell's native output, once per graph.
func setReference(cells []*cell) {
	hops := make(map[*graph.Graph][]int64)
	for _, c := range cells {
		g, o := c.spec.Graph, c.spec.Run
		switch c.spec.App {
		case analytics.BFS:
			if hops[g] == nil {
				hops[g] = analytics.NativeBFS(g, o.Root)
			}
			c.wantHops = hops[g]
		case analytics.PR:
			c.wantRanks, c.wantIters = analytics.NativePR(g, o.PREpsilon, o.PRMaxIters)
		}
	}
}

// runGraph is the shared driver of fresh-kernels and staged-node: set
// up (timed, repeated), compute the native references, then measure
// rounds over all cells.
func (r *runner) runGraph(setup func() []*cell, replay bool) outcome {
	o := outcome{layers: make(map[string]float64), notes: make(map[string]any)}
	var cells []*cell
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts on the same heap, as a fresh process would
		r.rec = r.spans
		t := time.Now()
		cells = setup()
		o.setup = append(o.setup, time.Since(t))
	}
	setReference(cells)

	r.setupLayers(o.layers)
	o.rounds = r.measure(func() round {
		var rd round
		t := time.Now()
		rd.Coverage = 1
		for _, c := range cells {
			co := r.runCell(c)
			rd.Cells = append(rd.Cells, co)
			rd.SimCycles += co.Counts.TotalCycles
			rd.Coverage = min(rd.Coverage, co.Coverage)
		}
		rd.Wall = time.Since(t)
		return rd
	})

	// The replay timings come after the rounds, outside every other
	// figure.
	if replay && r.traced {
		r.rec = nil
		replays := make(map[string][]float64)
		for _, c := range cells {
			r.replay(c, replays)
		}
		for k, xs := range replays {
			o.layers[k] = median(xs)
		}
	}

	o.notes["thp_speedup_band"] = speedupBand(cells)
	var errs []string
	for _, rd := range o.rounds {
		for _, c := range rd.Cells {
			if c.LoadErr != "" && !slices.Contains(errs, c.LoadErr) {
				errs = append(errs, c.LoadErr)
			}
		}
	}
	o.notes["ckpt_load_errors"] = errs
	return o
}

func speedupBand(cells []*cell) string {
	for _, c := range cells {
		if c.class == "sel" {
			return "unvalidated: sim.thp_speedup is THP-always over DBG+selective cycles under high pressure; DESIGN.md §6 target 5 bounds it (>=1) only at low pressure with fragmentation"
		}
	}
	return "unvalidated: sim.thp_speedup is the geomean 4KB-over-THP cycle ratio on a fresh boot; DESIGN.md §6 gives no band for it"
}

// cellLayers derives a round's per-layer figures from its cells.
func cellLayers(cells []cellOut) map[string]float64 {
	v := make(map[string]float64)
	var saveBytes, translation, huge, mapped float64
	var save, load time.Duration
	type perClass struct {
		run      time.Duration
		accesses uint64
	}
	class := make(map[string]*perClass)
	byApp := make(map[string]map[string]cellOut)
	for _, c := range cells {
		v["core.prepare_s"] += c.Prepare.Seconds()
		v["core.fork_s"] += c.Fork.Seconds()
		v["core.run_s"] += c.Run.Seconds()
		v["check.s"] += c.Check.Seconds()
		save += c.Save
		load += c.Load
		saveBytes += float64(c.ImageBytes)
		if !c.Loaded {
			v["ckpt.load_fail"]++
		}
		pc := class[c.Class]
		if pc == nil {
			pc = &perClass{}
			class[c.Class] = pc
		}
		pc.run += c.Run
		pc.accesses += c.Counts.KernelAccesses
		if byApp[c.App] == nil {
			byApp[c.App] = make(map[string]cellOut)
		}
		byApp[c.App][c.Class] = c

		k := c.Counts
		v["sim.kernel_accesses"] += float64(k.KernelAccesses)
		v["sim.init_accesses"] += float64(k.InitAccesses)
		v["sim.kernel_cycles"] += float64(k.KernelCycles)
		v["sim.total_cycles"] += float64(k.TotalCycles)
		v["tlb.l1_misses"] += float64(k.TLBL1Misses)
		v["sim.stlb_misses"] += float64(k.STLBMisses)
		v["tlb.walk_cycles"] += float64(k.WalkCycles)
		v["cache.l1_misses"] += float64(k.CacheL1Misses)
		v["cache.llc_misses"] += float64(k.LLCMisses)
		v["oskernel.faults_huge"] += float64(k.FaultsHuge)
		v["oskernel.huge_fallbacks"] += float64(k.HugeFallbacks)
		v["oskernel.compaction_runs"] += float64(k.CompactionRuns)
		translation += float64(k.TranslationCycles)
		huge += float64(k.HugeBytes)
		mapped += float64(k.MappedBytes)
	}
	n := float64(len(cells))
	v["sim.translation_share"] = ratio(translation, v["sim.kernel_cycles"])
	v["sim.huge_share"] = ratio(huge, mapped)
	v["oskernel.huge_fault_ok_frac"] = ratio(v["oskernel.faults_huge"], v["oskernel.faults_huge"]+v["oskernel.huge_fallbacks"])
	v["ckpt.image_mb"] = ratio(saveBytes/1e6, n)
	v["ckpt.load_ok_frac"] = ratio(n-v["ckpt.load_fail"], n)
	v["ckpt.save_s"] = save.Seconds()
	v["ckpt.load_s"] = load.Seconds()
	v["ckpt.save_gbps"] = ratio(saveBytes/1e9, save.Seconds())
	// Every load decodes the whole image before it can be rejected, so
	// load throughput counts all loaded bytes, rejected or not.
	v["ckpt.load_gbps"] = ratio(saveBytes/1e9, load.Seconds())
	for name, pc := range class {
		if name == "thp" || name == "4k" {
			v["kernel.ns_per_access."+name] = ratio(float64(pc.run.Nanoseconds()), float64(pc.accesses))
		}
	}

	// The 4KB and THP cells of one app make identical access streams,
	// so their host-time difference is the cost of the extra walks.
	var extraNs, extraWalks float64
	var speedups []float64
	for _, cs := range byApp {
		thp, ok1 := cs["thp"]
		base, ok2 := cs["4k"]
		if !ok1 || !ok2 {
			continue
		}
		extraNs += float64(base.Run.Nanoseconds() - thp.Run.Nanoseconds())
		extraWalks += float64(base.Counts.STLBMisses) - float64(thp.Counts.STLBMisses)
		speedups = append(speedups, ratio(float64(base.Counts.TotalCycles), float64(thp.Counts.TotalCycles)))
	}
	v["tlb.miss_path_ns"] = ratio(extraNs, extraWalks)
	if len(speedups) > 0 {
		logSum := 0.0
		for _, s := range speedups {
			logSum += math.Log(s)
		}
		v["sim.thp_speedup"] = math.Exp(logSum / float64(len(speedups)))
	} else if thp, sel := pick(cells, "thp"), pick(cells, "sel"); thp != nil && sel != nil {
		v["sim.thp_speedup"] = ratio(float64(thp.Counts.TotalCycles), float64(sel.Counts.TotalCycles))
	}

	return v
}

func pick(cells []cellOut, class string) *cellOut {
	for i := range cells {
		if cells[i].Class == class {
			return &cells[i]
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *runner) freshKernels() outcome {
	return r.runGraph(func() []*cell {
		return freshKernelCells(r.kron())
	}, true)
}

func (r *runner) stagedNode() outcome {
	return r.runGraph(func() []*cell {
		g := r.kron()
		o := r.start("reorder.dbg", "setup", 0)
		dbg, cost := reorder.Apply(g, reorder.DBG, 1)
		r.setupDone(o)
		return stagedNodeCells(r.cfg, g, dbg, cost)
	}, false)
}

// kron generates the run's Kronecker graph as a set-up call.
func (r *runner) kron() *graph.Graph {
	o := r.start("gen.generate", "setup", 0)
	g := gen.Kronecker(r.cfg.KronScale, r.cfg.EdgeFactor, false, 8, kronSeed(r.seed))
	r.setupDone(o)
	return g
}
