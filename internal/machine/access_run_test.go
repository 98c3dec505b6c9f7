package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// The batch engine's contract is arithmetic identity: AccessRun(va, n, s)
// must leave the machine in exactly the state n scalar Access calls
// would. SetBatch(false) routes AccessRun through the scalar loop, so a
// differential run is the same op script replayed on two machines that
// differ only in that switch.

// diffOp is one scripted step of a differential run.
type diffOp struct {
	vma    int    // which VMA to address
	off    uint64 // byte offset within the VMA
	count  int
	stride uint64
	phase  bool // begin a new phase before the run
}

// diffConfig is one hardware/kernel configuration under test.
type diffConfig struct {
	name        string
	cfg         Config
	sampleEvery uint64 // supply sampler interval, 0 for none
}

func diffConfigs() []diffConfig {
	smallTLB := tlb.Scaled(tlb.Haswell(), 16)
	smallCache := cache.Scaled(cache.Haswell(), 8)

	khuge := oskernel.DefaultConfig()
	khuge.KhugepagedEnabled = true
	khuge.KhugepagedInterval = 5000
	khuge.Mode = oskernel.ModeAlways
	khuge.FaultTimeHuge = false // promotions mid-run force shootdown splits

	heat := khuge
	heat.PromoteByHeat = true // scanner reads heat, so flush order matters

	never := oskernel.DefaultConfig()
	never.Mode = oskernel.ModeNever
	never.KhugepagedEnabled = true
	never.KhugepagedInterval = 4000 // stale deadline: events due every access

	return []diffConfig{
		{name: "default", cfg: Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Default(), Kernel: oskernel.DefaultConfig()}},
		{name: "small+khugepaged", cfg: Config{MemoryBytes: 64 << 20, TLB: smallTLB, Cache: smallCache, Cost: cost.Fast(), Kernel: khuge}, sampleEvery: 3000},
		{name: "heat-promoter", cfg: Config{MemoryBytes: 64 << 20, TLB: smallTLB, Cache: smallCache, Cost: cost.Fast(), Kernel: heat}},
		{name: "stale-deadline", cfg: Config{MemoryBytes: 64 << 20, TLB: tlb.Haswell(), Cache: cache.Haswell(), Cost: cost.Fast(), Kernel: never}},
		{name: "simulated-pt", cfg: Config{MemoryBytes: 64 << 20, TLB: smallTLB, Cache: smallCache, Cost: cost.Default(), Kernel: khuge, SimulatePageTables: true}},
	}
}

// diffSnapshot captures every observable the equivalence claim covers.
type diffSnapshot struct {
	Cycles uint64
	Phases []PhaseStats
	Arrays []ArrayStats
	TLB    tlb.Stats
	Cache  cache.Stats
	Supply []SupplySample
	Heat   [][]uint64
}

// replayDiff builds a machine for dc, maps two arrays, runs the script,
// and snapshots the final state. batch selects the engine under test.
func replayDiff(dc diffConfig, ops []diffOp, batch bool) diffSnapshot {
	m := New(dc.cfg)
	m.SetBatch(batch)
	a := m.Space.Mmap("a", 6<<20)
	b := m.Space.Mmap("b", 3<<20)
	m.SampleSupply(dc.sampleEvery, a, b)
	a.Madvise(0, 2<<20, vm.AdviceHuge)
	b.Madvise(2<<20, 1<<20, vm.AdviceNoHuge)
	m.RegisterArray(a)
	m.RegisterArray(b)
	vmas := []*vm.VMA{a, b}

	m.BeginPhase("run")
	for _, op := range ops {
		if op.phase {
			m.BeginPhase("next")
		}
		v := vmas[op.vma%len(vmas)]
		va := v.Base + op.off%v.Bytes
		count := op.count
		if op.stride > 0 {
			// Clamp the run inside the VMA so it never walks off the map.
			if fit := (v.End()-va-1)/op.stride + 1; uint64(count) > fit {
				count = int(fit)
			}
		}
		m.AccessRun(va, count, op.stride)
	}

	snap := diffSnapshot{
		Cycles: m.Cycles(),
		Phases: m.FinishPhases(),
		Arrays: m.ArrayStats(),
		TLB:    m.TLB.Stats(),
		Cache:  m.Cache.Stats(),
		Supply: m.Supply(),
	}
	for _, v := range vmas {
		snap.Heat = append(snap.Heat, v.HeatCopy())
	}
	return snap
}

// diffStrides samples the stream shapes the kernels issue (4B edges, 8B
// offsets, 16/24B properties, 64B lines) plus shapes that stress the
// splitting logic: sub-line, line-crossing, page-crossing, and stride 0
// (one line for the whole run).
var diffStrides = []uint64{0, 1, 3, 4, 8, 16, 24, 64, 72, 256, 4096, 4096 + 64, 2 << 20}

func randomOps(rng *rand.Rand, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		ops[i] = diffOp{
			vma:    rng.Intn(2),
			off:    rng.Uint64(),
			count:  rng.Intn(3000),
			stride: diffStrides[rng.Intn(len(diffStrides))],
			phase:  rng.Intn(16) == 0,
		}
	}
	return ops
}

// TestAccessRunMatchesScalar is the differential property test: across
// hardware configs, THP policies, event cadences, faults mid-run, and
// khugepaged shootdowns, the bulk engine must be indistinguishable from
// the scalar loop in every counter it touches.
func TestAccessRunMatchesScalar(t *testing.T) {
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5EED + int64(len(dc.name))))
			ops := randomOps(rng, 120)
			got := replayDiff(dc, ops, true)
			want := replayDiff(dc, ops, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bulk and scalar runs diverged\nbulk:   %+v\nscalar: %+v", got, want)
			}
		})
	}
}

// FuzzAccessRun feeds arbitrary op scripts through the differential
// harness, in the style of memsys's FuzzAllocFree: the fuzzer hunts for
// a run shape whose bulk accounting diverges from the scalar loop.
func FuzzAccessRun(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF, 0x40, 0x00, 0x10, 0x80, 0x02, 0x3F, 0x41, 0xFE, 0x00, 0x00, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfgs := diffConfigs()
		dc := cfgs[int(data[0])%len(cfgs)]
		var ops []diffOp
		for i := 1; i+4 <= len(data) && len(ops) < 64; i += 4 {
			ops = append(ops, diffOp{
				vma:    int(data[i]) & 1,
				off:    uint64(data[i])<<16 | uint64(data[i+1])<<8 | uint64(data[i+2]),
				count:  int(data[i+2])<<3 | int(data[i+3])>>5,
				stride: diffStrides[int(data[i+3])%len(diffStrides)],
				phase:  data[i+1]&0x1F == 7,
			})
		}
		got := replayDiff(dc, ops, true)
		want := replayDiff(dc, ops, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bulk and scalar runs diverged on %q\nbulk:   %+v\nscalar: %+v", dc.name, got, want)
		}
	})
}

// TestAccessRunZeroAllocs extends the engine's zero-alloc contract to
// the bulk path: a steady-state run must not allocate.
func TestAccessRunZeroAllocs(t *testing.T) {
	m := New(Config{
		MemoryBytes: 64 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Default(),
		Kernel:      oskernel.DefaultConfig(),
	})
	v := m.Space.Mmap("steady", 4<<20)
	m.RegisterArray(v)
	m.Touch(v.Base, v.Bytes)
	if avg := testing.AllocsPerRun(100, func() {
		m.AccessRun(v.Base, 1024, 4)
		m.AccessRun(v.Base, 64, 64)
	}); avg != 0 {
		t.Fatalf("AccessRun allocated %.1f times per run; the bulk path must be allocation-free", avg)
	}
}
