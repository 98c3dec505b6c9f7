package main

// metric is one named figure the benchmark reports, with its unit.
type metric struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the simulator sees, reported by
// every untraced run. BENCHMARK.json lists the same names and units;
// TestMetricTablesMatchBenchmarkJSON keeps the two in step.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"peak_sys_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer lists the metrics of single layers, reported by every traced
// run. A metric whose layer the workload does not exercise reads 0
// (README.md says which workload moves which metric).
var perLayer = []metric{
	{"gen.generate_s", "s"},
	{"reorder.dbg_s", "s"},
	{"core.prepare_s", "s"},
	{"core.fork_s", "s"},
	{"core.run_s", "s"},
	{"check.s", "s"},
	{"kernel.ns_per_access.thp", "ns"},
	{"kernel.ns_per_access.4k", "ns"},
	{"tlb.miss_path_ns", "ns"},
	{"vm.translate_ns", "ns"},
	{"tlb.lookup_ns", "ns"},
	{"cache.access_ns", "ns"},
	{"ckpt.save_s", "s"},
	{"ckpt.save_gbps", "GB/s"},
	{"ckpt.image_mb", "MB"},
	{"ckpt.load_s", "s"},
	{"ckpt.load_gbps", "GB/s"},
	{"ckpt.load_fail", "count"},
	{"ckpt.load_ok_frac", "frac"},
	{"exp.campaign_s", "s"},
	{"exp.cells", "count"},
	{"exp.s_per_cell", "s"},
	{"stats.render_s", "s"},
	{"go.gc_cpu_frac", "frac"},
	{"go.alloc_gb", "GB"},
	{"go.peak_sys_mb", "MB"},
	{"sim.maccess_per_s", "Maccess/s"},
	{"sim.kernel_accesses", "count"},
	{"sim.init_accesses", "count"},
	{"sim.kernel_cycles", "cycles"},
	{"sim.total_cycles", "cycles"},
	{"sim.translation_share", "frac"},
	{"tlb.l1_misses", "count"},
	{"sim.stlb_misses", "count"},
	{"tlb.walk_cycles", "cycles"},
	{"cache.l1_misses", "count"},
	{"cache.llc_misses", "count"},
	{"oskernel.faults_huge", "count"},
	{"oskernel.huge_fallbacks", "count"},
	{"oskernel.huge_fault_ok_frac", "frac"},
	{"oskernel.compaction_runs", "count"},
	{"sim.huge_share", "frac"},
	{"sim.thp_speedup", "x"},
	{"trace.overhead_frac", "frac"},
	{"trace.span_coverage_min", "frac"},
}
