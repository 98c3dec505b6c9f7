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

// AccessGather's contract mirrors AccessRun's: it must leave the machine
// in exactly the state len(vas) scalar Access calls would.
// SetBatch(false) routes both entry points through the scalar loop, so a
// differential run is the same op script replayed on two machines that
// differ only in that switch. The configs, VMA layout,
// and snapshot are shared with access_run_test.go.

// gatherRef is one collected address: a VMA index plus a byte offset
// (reduced mod the VMA size at replay).
type gatherRef struct {
	vma uint8
	off uint64
}

// gatherOp is one scripted step: either an AccessGather batch (refs) or
// an interleaved AccessRun (run) so the two entry points are exercised
// against each other's translation-cache and TLB state.
type gatherOp struct {
	phase  bool
	run    bool
	vma    int
	off    uint64
	count  int
	stride uint64
	refs   []gatherRef
}

// replayGatherDiff builds a machine for dc, maps the shared two-array
// layout, runs the script, and snapshots the final state. batch
// selects the engine under test.
func replayGatherDiff(dc diffConfig, ops []gatherOp, batch bool) diffSnapshot {
	m := New(dc.cfg)
	m.SetBatch(batch)
	a := m.Space.Mmap("a", 6<<20)
	b := m.Space.Mmap("b", 3<<20)
	m.SampleSupply(dc.sampleEvery, a, b)
	a.Madvise(0, 2<<20, vm.AdviceHuge)
	b.Madvise(2<<20, 1<<20, vm.AdviceNoHuge)
	m.RegisterArray(a)
	m.RegisterArray(b)
	vmas := [2]*vm.VMA{a, b}

	buf := make([]uint64, 0, 2048)
	m.BeginPhase("run")
	for _, op := range ops {
		if op.phase {
			m.BeginPhase("next")
		}
		if op.run {
			v := vmas[op.vma%len(vmas)]
			va := v.Base + op.off%v.Bytes
			count := op.count
			if op.stride > 0 {
				if fit := (v.End()-va-1)/op.stride + 1; uint64(count) > fit {
					count = int(fit)
				}
			}
			m.AccessRun(va, count, op.stride)
			continue
		}
		buf = buf[:0]
		for _, r := range op.refs {
			v := vmas[int(r.vma)%len(vmas)]
			buf = append(buf, v.Base+r.off%v.Bytes)
		}
		m.AccessGather(buf)
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

// randomGatherOps generates scripts shaped like real neighbor gathers:
// random page jumps, same-page revisits, line skips, same-line walks,
// and exact repeats, with strided runs interleaved.
func randomGatherOps(rng *rand.Rand, n int) []gatherOp {
	ops := make([]gatherOp, n)
	for i := range ops {
		op := gatherOp{phase: rng.Intn(16) == 0}
		if rng.Intn(4) == 0 {
			op.run = true
			op.vma = rng.Intn(2)
			op.off = rng.Uint64()
			op.count = rng.Intn(2000)
			op.stride = diffStrides[rng.Intn(len(diffStrides))]
		} else {
			k := rng.Intn(400)
			refs := make([]gatherRef, 0, k)
			cur := gatherRef{vma: uint8(rng.Intn(2)), off: rng.Uint64()}
			for len(refs) < k {
				switch rng.Intn(8) {
				case 0: // random jump, possibly to the other array
					cur = gatherRef{vma: uint8(rng.Intn(2)), off: rng.Uint64()}
				case 1: // page skip inside the same array
					cur.off += 4096
				case 2: // new line on the same page
					cur.off += 64
				case 3: // exact repeat (degenerate same-line run)
				default: // same-line walk (sorted neighbor run)
					cur.off += 8
				}
				refs = append(refs, cur)
			}
			op.refs = refs
		}
		ops[i] = op
	}
	return ops
}

// TestAccessGatherMatchesScalar is the differential property test:
// across hardware configs, THP policies, event cadences, faults
// mid-batch, and khugepaged shootdowns, the gather engine must be
// indistinguishable from the scalar loop in every counter it touches.
func TestAccessGatherMatchesScalar(t *testing.T) {
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x6A7 + int64(len(dc.name))))
			ops := randomGatherOps(rng, 120)
			got := replayGatherDiff(dc, ops, true)
			want := replayGatherDiff(dc, ops, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gather and scalar runs diverged\ngather: %+v\nscalar: %+v", got, want)
			}
		})
	}
}

// FuzzAccessGather feeds arbitrary batch scripts through the
// differential harness: the fuzzer hunts for a batch shape whose gather
// accounting diverges from the scalar loop.
func FuzzAccessGather(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0xFF, 0x41, 0x00, 0x12, 0x80, 0x02, 0x3F, 0x44, 0xFE, 0x00, 0x01, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfgs := diffConfigs()
		dc := cfgs[int(data[0])%len(cfgs)]
		var ops []gatherOp
		var refs []gatherRef
		var cur gatherRef
		flush := func() {
			if len(refs) > 0 {
				ops = append(ops, gatherOp{refs: refs, phase: len(ops)%13 == 7})
				refs = nil
			}
		}
		for i := 1; i+3 <= len(data) && len(ops) < 48; i += 3 {
			switch data[i] % 8 {
			case 0: // interleaved strided run
				flush()
				ops = append(ops, gatherOp{
					run:    true,
					vma:    int(data[i+1]) & 1,
					off:    uint64(data[i+1])<<12 | uint64(data[i+2]),
					count:  int(data[i+2]) << 2,
					stride: diffStrides[int(data[i+1])%len(diffStrides)],
				})
			case 1: // random jump
				cur = gatherRef{vma: data[i+1] & 1, off: uint64(data[i+1])<<16 | uint64(data[i+2])<<8}
				refs = append(refs, cur)
			case 2: // page skip
				cur.off += 4096
				refs = append(refs, cur)
			case 3: // line skip
				cur.off += 64
				refs = append(refs, cur)
			case 4: // exact repeat
				refs = append(refs, cur)
			default: // same-line walk of data[i+2]%16+1 entries
				for j := 0; j <= int(data[i+2]%16); j++ {
					cur.off += 8
					refs = append(refs, cur)
				}
			}
		}
		flush()
		got := replayGatherDiff(dc, ops, true)
		want := replayGatherDiff(dc, ops, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gather and scalar runs diverged on %q\ngather: %+v\nscalar: %+v", dc.name, got, want)
		}
	})
}

// TestAccessGatherZeroAllocs extends the engine's zero-alloc contract
// to the gather path: dispatching a steady-state batch must not
// allocate (the kernels reuse their collection buffer, so the whole
// collect-and-gather cycle stays allocation-free once warm).
func TestAccessGatherZeroAllocs(t *testing.T) {
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

	// A neighbor-gather-shaped batch: line jumps with short sorted runs,
	// alternating between a few pages.
	vas := make([]uint64, 0, 1024)
	x := uint64(0x9E3779B97F4A7C15)
	for len(vas) < 1024 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		va := v.Base + x%(v.Bytes-64)&^7
		for j := uint64(0); j <= x>>61 && len(vas) < 1024; j++ {
			vas = append(vas, va+j*8)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		m.AccessGather(vas)
	}); avg != 0 {
		t.Fatalf("AccessGather allocated %.1f times per run; the gather path must be allocation-free", avg)
	}
}
