// Package machine assembles the full simulated system — physical memory,
// an address space, the kernel's THP policy, the TLB hierarchy, and the
// data caches — behind a single Access entry point that charges cycle
// costs the way the paper's hardware does: data latency plus translation
// latency plus any fault-handling work on the critical path.
//
// Simulated time is a cycle counter; "runtime" comparisons across
// configurations are ratios of these counters over identical access
// streams.
//
// The access engine is staged across five files (DESIGN.md §4):
//
//   - access.go       the branch-lean fast path: one translation-cache
//     compare, TLB probe, data-cache probe, and inlined allocation-free
//     accounting. Tagged //simlint:fastpath (rule SL007).
//   - access_batch.go the batch engine: AccessRun (constant-stride
//     streams) and AccessGather (irregular address slices) share one
//     loop that coalesces same-page and same-line runs with aggregated,
//     scalar-identical accounting. Tagged //simlint:fastpath.
//   - access_slow.go  everything rare: page faults, STLB probes, page
//     walks, simulated-PTE fetches, TLB fills, the scalar degradation
//     loop.
//   - events.go       the event layer: background actors (khugepaged,
//     the supply sampler) keep cycle deadlines; the fast path pays a
//     single compare per access and dispatches only when one is due.
//   - stats.go        phases, per-array attribution, and the tracer
//     hook.
//
// This file holds construction and the cross-cutting small pieces.
package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// Config bundles everything needed to build a Machine.
type Config struct {
	MemoryBytes uint64
	TLB         tlb.Config
	Cache       cache.Config
	Cost        cost.Model
	Kernel      oskernel.Config

	// SimulatePageTables switches page walks from the constant
	// per-level cost model to real fetches: paging structures live in
	// simulated frames (unmovable kernel memory) and walk entries are
	// read through the data cache hierarchy, so hot page-table entries
	// cost an L1 hit and cold ones cost DRAM.
	SimulatePageTables bool
}

// DefaultConfig returns a machine mirroring the paper's evaluation node
// (Table 1), with memory scaled to memBytes.
func DefaultConfig(memBytes uint64) Config {
	return Config{
		MemoryBytes: memBytes,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.DefaultConfig(),
	}
}

// trCacheWays is the number of victim entries behind the primary
// translation-cache entry. Gathers over power-law neighbor lists revisit
// a small working set of hot property pages; a handful of ways captures
// most of the revisits without turning the refill probe into a scan.
const trCacheWays = 8

// trEntry is one VA-tagged victim entry of the translation cache.
// span == 0 means empty.
type trEntry struct {
	base, span uint64
	tr         vm.Translation
}

// Machine is one simulated host running one workload.
//
// The fields a sharded run must keep private per shard — the TLB and
// cache hierarchies, the translation cache, and all phase/array
// accounting — live in the embedded shardState vector (shardstate.go);
// field promotion keeps every access site unchanged. The remaining
// fields are either per-machine infrastructure that forks wholesale
// (memory, address space, kernel) or configuration identical across
// shards.
type Machine struct {
	Mem    *memsys.Memory
	Space  *vm.AddressSpace
	Kernel *oskernel.Kernel
	Model  cost.Model

	cycles uint64
	simPT  bool

	// noBatch forces AccessRun and AccessGather onto the per-access
	// path (access_batch.go). Batch charging is cycle-identical by
	// construction, so this exists only to prove it: the CI gate diffs
	// a campaign run both ways. Set by SetBatch (core opens it via the
	// GRAPHMEM_NO_BATCH hatch). It is per-process configuration, not
	// machine state: checkpoints do not carry it.
	noBatch bool

	// Event layer state (events.go): the earliest cycle at which any
	// background actor is due, and the supply sampler. The fast path
	// compares cycles against nextEvent once per access.
	nextEvent uint64
	supply    supplySampler

	// tracer receives every access when set (stats.go). The fast path
	// tests it for nil only.
	tracer Tracer

	shardState
}

// New builds a machine.
func New(cfg Config) *Machine {
	mem := memsys.New(cfg.MemoryBytes)
	space := vm.NewAddressSpace(mem)
	space.SimPageTables = cfg.SimulatePageTables
	m := &Machine{
		simPT:  cfg.SimulatePageTables,
		Mem:    mem,
		Space:  space,
		Kernel: oskernel.New(cfg.Kernel, space, cfg.Cost),
		Model:  cfg.Cost,
		shardState: shardState{
			TLB:   tlb.New(cfg.TLB),
			Cache: cache.New(cfg.Cache),
		},
	}
	space.Shootdown = m.shootdown
	m.phase = PhaseStats{Name: "boot"}
	m.armEvents()
	return m
}

// shootdown is the address space's mapping-change callback: it drops
// every entry of the machine's translation cache — the primary entry and
// the whole victim array, conservatively, whatever the changed range was
// — and forwards the invalidation to the TLB hierarchy. Clearing
// everything keeps the widened cache trivially coherent: no entry can
// outlive any mapping change.
func (m *Machine) shootdown(va uint64, size vm.PageSizeClass) {
	m.trSpan = 0
	for i := range m.trWide {
		m.trWide[i].span = 0
	}
	m.TLB.Invalidate(va, size)
}

// Cycles returns total simulated time so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// AddCycles charges pure compute time (no memory access) to the current
// phase, used for modelling non-memory work such as preprocessing CPU
// time. It does not dispatch background events: only Access drives them,
// matching the pre-event-layer engine.
func (m *Machine) AddCycles(c uint64) {
	m.cycles += c
	m.phase.Cycles += c
}

// SetBatch enables or disables the batch engine behind AccessRun and
// AccessGather. Disabling is observationally invisible — batch charging
// is cycle-identical to per-access dispatch — and exists for the
// equivalence gate in CI and for differential tests.
func (m *Machine) SetBatch(enabled bool) { m.noBatch = !enabled }

// Batching reports whether the batch engine is enabled (SetBatch).
func (m *Machine) Batching() bool { return !m.noBatch }

// Touch faults in (and accesses) every page of the byte range
// [va, va+bytes), in ascending order — the simulator's equivalent of an
// initialization loop writing an array sequentially. It charges one
// access per cache line to approximate streaming initialization.
func (m *Machine) Touch(va, bytes uint64) {
	if bytes == 0 {
		return
	}
	lines := (bytes-1)>>cache.LineShift + 1
	m.AccessRun(va, int(lines), 1<<cache.LineShift)
}
