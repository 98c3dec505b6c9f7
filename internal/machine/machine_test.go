package machine

import (
	"bytes"
	"reflect"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/ckpt"
	"graphmem/internal/cost"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

func newTestMachine(t *testing.T, kcfg oskernel.Config) *Machine {
	t.Helper()
	return New(Config{
		MemoryBytes: 64 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      kcfg,
	})
}

func TestAccessFaultsMapsCharges(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base + 5)
	if m.Cycles() == 0 {
		t.Fatal("no cycles charged")
	}
	ph := m.FinishPhases()
	var p PhaseStats
	for _, q := range ph {
		if q.Name == "p" {
			p = q
		}
	}
	if p.Accesses != 1 {
		t.Fatalf("phase accesses = %d", p.Accesses)
	}
	if p.FaultCycles == 0 {
		t.Fatal("fault cost not attributed")
	}
	if p.Cycles < p.FaultCycles+p.DataCycles {
		t.Fatal("phase cycle accounting inconsistent")
	}
}

func TestRepeatAccessCheap(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.Access(v.Base)
	before := m.Cycles()
	m.Access(v.Base)
	delta := m.Cycles() - before
	fast := cost.Fast()
	if delta != fast.L1DHit+fast.Compute {
		t.Fatalf("hot access cost %d, want %d", delta, fast.L1DHit+fast.Compute)
	}
}

func TestAccessUnmappedPanics(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("wild access did not panic")
		}
	}()
	m.Access(0x1)
}

func TestPhaseIsolation(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("init")
	m.Touch(v.Base, v.Bytes)
	m.BeginPhase("kernel")
	m.Access(v.Base)
	m.FinishPhases()
	ini, ok := m.Phase("init")
	if !ok {
		t.Fatal("init phase missing")
	}
	ker, ok := m.Phase("kernel")
	if !ok {
		t.Fatal("kernel phase missing")
	}
	if ker.FaultCycles != 0 {
		t.Fatal("kernel phase saw faults after full init touch")
	}
	if ini.FaultCycles == 0 {
		t.Fatal("init phase saw no faults")
	}
	wantAccesses := uint64(memsys.HugeSize / 64)
	if ini.Accesses != wantAccesses {
		t.Fatalf("init accesses = %d, want %d", ini.Accesses, wantAccesses)
	}
	if ini.TLB.Lookups != wantAccesses {
		t.Fatalf("init TLB lookups = %d", ini.TLB.Lookups)
	}
}

func TestArrayAttribution(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	a := m.Space.Mmap("a", memsys.HugeSize)
	b := m.Space.Mmap("b", memsys.HugeSize)
	m.RegisterArray(a)
	m.RegisterArray(b)
	m.Access(a.Base)
	m.Access(a.Base + 4096)
	m.Access(b.Base)
	st := m.ArrayStats()
	if st[0].Name != "a" || st[0].Accesses != 2 {
		t.Fatalf("array a stats = %+v", st[0])
	}
	if st[1].Name != "b" || st[1].Accesses != 1 {
		t.Fatalf("array b stats = %+v", st[1])
	}
}

func TestTranslationChargesWalk(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	// 16MB of pages against a ~4MB-reach STLB (and well within the
	// machine's 64MB of memory, so no reclaim interferes).
	v := m.Space.Mmap("a", 8*memsys.HugeSize)
	m.BeginPhase("warm")
	// Touch enough distinct pages to overwhelm both TLB levels, then
	// re-touch: translation cycles must accrue.
	for p := 0; p < v.Pages; p++ {
		m.Access(v.PageVA(p))
	}
	m.BeginPhase("measure")
	for p := 0; p < v.Pages; p++ {
		m.Access(v.PageVA(p))
	}
	m.FinishPhases()
	meas, _ := m.Phase("measure")
	if meas.TLB.STLBMisses == 0 {
		t.Fatal("no walks on a 16MB stream against a 4MB-reach STLB")
	}
	if meas.TranslationCycles == 0 {
		t.Fatal("walks charged no translation cycles")
	}
	if meas.FaultCycles != 0 {
		t.Fatal("re-touch faulted")
	}
}

func TestHugeMappingReducesWalks(t *testing.T) {
	run := func(kcfg oskernel.Config) uint64 {
		m := newTestMachine(t, kcfg)
		v := m.Space.Mmap("a", 16*memsys.HugeSize)
		m.Touch(v.Base, v.Bytes) // fault in
		m.BeginPhase("measure")
		// Strided accesses across pages.
		for rep := 0; rep < 4; rep++ {
			for p := 0; p < v.Pages; p++ {
				m.Access(v.PageVA(p))
			}
		}
		m.FinishPhases()
		ph, _ := m.Phase("measure")
		return ph.TLB.L1Misses
	}
	missBase := run(oskernel.BaselineConfig())
	missHuge := run(oskernel.DefaultConfig())
	if missHuge*4 > missBase {
		t.Fatalf("huge pages did not reduce L1 TLB misses: %d vs %d", missHuge, missBase)
	}
}

func TestAddCycles(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	m.BeginPhase("p")
	m.AddCycles(12345)
	m.FinishPhases()
	p, _ := m.Phase("p")
	if p.Cycles != 12345 {
		t.Fatalf("phase cycles = %d", p.Cycles)
	}
}

func TestTranslationShare(t *testing.T) {
	p := PhaseStats{Cycles: 200, TranslationCycles: 50}
	if p.TranslationShare() != 0.25 {
		t.Fatalf("share = %v", p.TranslationShare())
	}
	var zero PhaseStats
	if zero.TranslationShare() != 0 {
		t.Fatal("zero-phase share not zero")
	}
}

type recordingTracer struct {
	vas  []uint64
	tags []uint8
}

func (r *recordingTracer) Trace(va uint64, tag uint8) {
	r.vas = append(r.vas, va)
	r.tags = append(r.tags, tag)
}

func TestTracerReceivesAccesses(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.RegisterArray(v)
	rec := &recordingTracer{}
	m.SetTracer(rec)
	m.Access(v.Base + 100)
	m.Access(v.Base + 5000)
	if len(rec.vas) != 2 || rec.vas[0] != v.Base+100 {
		t.Fatalf("trace = %v", rec.vas)
	}
	if rec.tags[0] != 0 {
		t.Fatalf("tag = %d, want registered array tag 0", rec.tags[0])
	}
	// Untracked VMAs carry the sentinel tag.
	w := m.Space.Mmap("b", memsys.HugeSize)
	m.Access(w.Base)
	if rec.tags[2] != 0xFF {
		t.Fatalf("untracked tag = %d", rec.tags[2])
	}
}

func TestRegionHeatAccumulates(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", 3*memsys.HugeSize)
	for i := 0; i < 5; i++ {
		m.Access(v.Base + memsys.HugeSize + uint64(i)*64) // region 1
	}
	m.Access(v.Base) // region 0
	if v.HeatAt(1) != 5 || v.HeatAt(0) != 1 || v.HeatAt(2) != 0 {
		t.Fatalf("heat = %v", v.HeatCopy()[:3])
	}
}

func TestSimulatedPageTablesChangeWalkCosts(t *testing.T) {
	run := func(simPT bool) (uint64, uint64) {
		m := New(Config{
			MemoryBytes:        64 << 20,
			TLB:                tlb.Scaled(tlb.Haswell(), 16),
			Cache:              cache.Haswell(),
			Cost:               cost.Fast(),
			Kernel:             oskernel.BaselineConfig(),
			SimulatePageTables: simPT,
		})
		v := m.Space.Mmap("a", 8*memsys.HugeSize)
		m.Touch(v.Base, v.Bytes)
		m.BeginPhase("measure")
		for rep := 0; rep < 2; rep++ {
			for p := 0; p < v.Pages; p++ {
				m.Access(v.PageVA(p))
			}
		}
		m.FinishPhases()
		ph, _ := m.Phase("measure")
		return ph.TranslationCycles, ph.TLB.STLBMisses
	}
	constCost, constWalks := run(false)
	simCost, simWalks := run(true)
	if constWalks == 0 || simWalks == 0 {
		t.Fatal("no walks happened; test graph too small")
	}
	if simCost == constCost {
		t.Fatal("simulated page tables did not change walk costs")
	}
	// With the fast model, PT pages of a sequential scan stay cache-hot
	// (512 consecutive PTEs per line-filled PT page), so simulated
	// walks must be cheaper per walk than the fixed cold-walk constant.
	if float64(simCost)/float64(simWalks) >= float64(constCost)/float64(constWalks) {
		t.Fatalf("hot-PT walks (%d/%d) not cheaper than constant model (%d/%d)",
			simCost, simWalks, constCost, constWalks)
	}
}

// --- staged-engine regression tests -----------------------------------

// TestFaultPathCyclesPinned pins the staged engine's fault-path charges:
// with ample free memory the critical-path fault cost is exactly the
// model's minor-fault constant — 4K under THP=never, 2M on an always-on
// first touch — unchanged from the engine that re-translated after every
// fault.
func TestFaultPathCyclesPinned(t *testing.T) {
	fast := cost.Fast()

	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base)
	m.FinishPhases()
	p, ok := m.Phase("p")
	if !ok {
		t.Fatal("phase missing")
	}
	if p.FaultCycles != fast.MinorFault4K {
		t.Fatalf("4K fault charged %d cycles, want MinorFault4K = %d", p.FaultCycles, fast.MinorFault4K)
	}
	if s := m.Kernel.Stats(); s.Faults4K != 1 || s.FaultsHuge != 0 {
		t.Fatalf("kernel stats = %+v", s)
	}

	m = newTestMachine(t, oskernel.DefaultConfig())
	v = m.Space.Mmap("a", memsys.HugeSize)
	m.BeginPhase("p")
	m.Access(v.Base)
	m.FinishPhases()
	p, _ = m.Phase("p")
	if p.FaultCycles != fast.MinorFault2M {
		t.Fatalf("huge fault charged %d cycles, want MinorFault2M = %d", p.FaultCycles, fast.MinorFault2M)
	}
	if s := m.Kernel.Stats(); s.FaultsHuge != 1 {
		t.Fatalf("kernel stats = %+v", s)
	}
}

// TestAccessFastPathZeroAllocs proves the steady-state Access fast path
// performs zero heap allocations (the contract SL007 guards statically).
func TestAccessFastPathZeroAllocs(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.RegisterArray(v)
	m.Touch(v.Base, memsys.HugeSize) // fault everything in first
	const span = 16 << 10
	var off uint64
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			m.Access(v.Base + off)
			off = (off + 64) % span
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state fast path allocates: %v allocs per 512 accesses", avg)
	}
}

// TestTickerCadenceMatchesPerAccessScan replays the pre-event-layer
// dispatch rule for a periodic actor — check it after every access,
// fire when now-last >= interval — and asserts the event layer's supply
// sampler fires at exactly the same cycle counts.
func TestTickerCadenceMatchesPerAccessScan(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", 4*memsys.HugeSize)

	const interval = 1000
	m.SampleSupply(interval, v, v)

	var want []uint64
	var last uint64
	x := uint64(1)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m.Access(v.Base + x%(4*memsys.HugeSize))
		if c := m.Cycles(); c-last >= interval {
			want = append(want, c)
			last = c
		}
	}
	fires := m.Supply()
	if len(fires) == 0 {
		t.Fatal("sampler never fired")
	}
	if len(fires) != len(want) {
		t.Fatalf("sampler fired %d times, per-access scan would fire %d", len(fires), len(want))
	}
	for i := range fires {
		if fires[i].Cycles != want[i] {
			t.Fatalf("fire %d at cycle %d, per-access scan fires at %d", i, fires[i].Cycles, want[i])
		}
	}

	// A sampler enabled mid-run must be armed immediately: its first
	// due deadline is already in the past, so the next access fires it.
	m.SampleSupply(interval, v, v)
	m.Access(v.Base)
	late := m.Supply()[len(fires):]
	if len(late) != 1 || late[0].Cycles != m.Cycles() {
		t.Fatalf("mid-run sampler fires = %v, want one fire at %d", late, m.Cycles())
	}
}

// sampleTo accesses va on m until its supply sampler holds n samples.
func sampleTo(t *testing.T, m *Machine, va uint64, n int) {
	t.Helper()
	for i := 0; len(m.Supply()) < n; i++ {
		if i == 100_000 {
			t.Fatalf("sampler stalled at %d of %d samples", len(m.Supply()), n)
		}
		m.Access(va)
	}
}

// TestForkOwnsSupplySamples: a fork copies the supply sampler, samples
// its own VMAs, and owns its samples. Parent and fork are driven apart
// after the fork; a samples slice whose spare capacity both shared
// would let the fork's append overwrite the parent's sample.
func TestForkOwnsSupplySamples(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", 4*memsys.HugeSize)
	m.SampleSupply(100, v, v)
	sampleTo(t, m, v.Base, 3)
	if s := m.supply.samples; cap(s) == len(s) {
		t.Fatalf("precondition: samples need spare capacity at the fork (len %d, cap %d)", len(s), cap(s))
	}

	f := m.Fork(nil)
	if fv := f.Space.FindVMA(v.Base); f.supply.edge != fv || f.supply.prop != fv {
		t.Fatal("fork samples the parent's VMAs, not its own")
	}
	sampleTo(t, m, v.Base, 4)
	want := m.Supply()[3]
	f.AddCycles(1000) // past the next deadline: the fork samples at another cycle
	sampleTo(t, f, v.Base, 4)
	if f.Supply()[3] == want {
		t.Fatal("fork and parent took the same fourth sample; the test cannot tell them apart")
	}
	if got := m.Supply()[3]; got != want {
		t.Fatalf("parent's fourth sample changed to %+v after the fork sampled, want %+v", got, want)
	}
}

// TestCodecCarriesSupplySampler saves a sampling machine right after a
// sample, when khugepaged's next scan falls before the sampler's next
// deadline, and requires the decoded machine to sample exactly as the
// original does from there on: the interval, the last-sample cycle
// (which decides whether the scan's dispatch also samples), the VMAs
// and the samples taken all ride in the checkpoint.
func TestCodecCarriesSupplySampler(t *testing.T) {
	kcfg := oskernel.DefaultConfig()
	kcfg.KhugepagedInterval = 1000
	m := newTestMachine(t, kcfg)
	edge := m.Space.Mmap("edge", 4*memsys.HugeSize)
	prop := m.Space.Mmap("prop", 2*memsys.HugeSize)
	m.SampleSupply(5000, edge, prop)
	sampleTo(t, m, edge.Base, 3)

	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, "m", func(e *ckpt.Encoder) { m.Encode(e, nil) }); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.Load(&buf, "m")
	if err != nil {
		t.Fatal(err)
	}
	loaded := new(Machine)
	loaded.Decode(d, nil)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if loaded.supply.edge != loaded.Space.FindVMA(edge.Base) || loaded.supply.prop != loaded.Space.FindVMA(prop.Base) {
		t.Fatal("decoded sampler does not sample the decoded VMAs")
	}
	for _, mc := range []*Machine{m, loaded} {
		// Cheap hits first, so the scan's deadline passes on its own
		// before the sampler's; then faults on fresh pages.
		for i := 0; i < 2000; i++ {
			mc.Access(edge.Base)
		}
		for off := uint64(0); off < 2*memsys.HugeSize; off += 4096 {
			mc.Access(edge.Base + off)
			mc.Access(prop.Base + off)
		}
	}
	if len(m.Supply()) < 6 {
		t.Fatalf("only %d samples after the save; the comparison needs several", len(m.Supply()))
	}
	if !reflect.DeepEqual(m.Supply(), loaded.Supply()) || m.Cycles() != loaded.Cycles() {
		t.Fatalf("decoded machine sampled %+v, original %+v", loaded.Supply(), m.Supply())
	}
}

// TestTranslationCacheInvalidatedOnUnmap guards the machine-level
// translation cache: unmapping the VMA must drop the cached entry, so a
// further access panics as an unmapped-address bug instead of silently
// reusing the stale frame.
func TestTranslationCacheInvalidatedOnUnmap(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", memsys.HugeSize)
	m.Access(v.Base) // seeds the translation cache
	m.Space.Munmap(v)
	defer func() {
		if recover() == nil {
			t.Fatal("access after munmap did not panic: stale cached translation")
		}
	}()
	m.Access(v.Base)
}

// TestWideTranslationCacheInvalidatedOnShootdown extends the unmap
// regression to the widened cache: after seeding the primary entry and
// every victim entry with distinct pages, a single mapping change must
// drop them all — a survivor in any way would be a silent stale-frame
// bug the batch engine could hit on its next segment.
func TestWideTranslationCacheInvalidatedOnShootdown(t *testing.T) {
	m := newTestMachine(t, oskernel.BaselineConfig())
	v := m.Space.Mmap("a", (trCacheWays+2)*memsys.PageSize)
	for p := uint64(0); p < trCacheWays+2; p++ {
		m.Access(v.Base + p*memsys.PageSize)
	}
	live := 0
	for i := range m.trWide {
		if m.trWide[i].span != 0 {
			live++
		}
	}
	if live != trCacheWays {
		t.Fatalf("seeded %d victim entries, want all %d", live, trCacheWays)
	}
	m.Space.Munmap(v)
	if m.trSpan != 0 {
		t.Fatal("primary translation-cache entry survived munmap")
	}
	for i := range m.trWide {
		if m.trWide[i].span != 0 {
			t.Fatalf("victim translation-cache entry %d survived munmap", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access after munmap did not panic: stale victim translation")
		}
	}()
	m.Access(v.Base + memsys.PageSize)
}

// TestWideTranslationCacheShootdownMidGather drives a shootdown through
// a page fault in the middle of an AccessGather batch: the batch's
// footprint exceeds physical memory, so faults past capacity trigger
// reclaim, whose swap-outs fire Space.Shootdown while the gather is
// mid-flight with live translation-cache entries. A wrapper around the
// shootdown hook asserts every entry — primary and victims — is dropped
// at the exact moment each shootdown fires.
func TestWideTranslationCacheShootdownMidGather(t *testing.T) {
	m := New(Config{
		MemoryBytes: 4 << 20,
		TLB:         tlb.Haswell(),
		Cache:       cache.Haswell(),
		Cost:        cost.Fast(),
		Kernel:      oskernel.BaselineConfig(),
	})
	v := m.Space.Mmap("a", 8<<20)
	m.RegisterArray(v)

	fired := 0
	orig := m.Space.Shootdown
	m.Space.Shootdown = func(va uint64, size vm.PageSizeClass) {
		orig(va, size)
		fired++
		if m.trSpan != 0 {
			t.Errorf("shootdown %d left the primary translation-cache entry live", fired)
		}
		for i := range m.trWide {
			if m.trWide[i].span != 0 {
				t.Errorf("shootdown %d left victim translation-cache entry %d live", fired, i)
			}
		}
	}

	// One batch of short same-line runs over twice the machine's memory.
	vas := make([]uint64, 0, 3*2048)
	for p := uint64(0); p < 2048; p++ {
		va := v.Base + p*memsys.PageSize
		vas = append(vas, va, va+8, va+16)
	}
	m.AccessGather(vas)

	if fired == 0 {
		t.Fatal("no shootdown fired mid-gather: reclaim never ran")
	}
	if m.Kernel.Stats().SwapOuts == 0 {
		t.Fatal("expected reclaim swap-outs under memory oversubscription")
	}
}
