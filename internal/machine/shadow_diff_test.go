package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"graphmem/internal/vm"
)

// replayShadowDiff is replayDiff with the memsys shadow mirror toggled:
// the same script runs on a machine whose physical node carries the
// unpacked reference copy of every frame's metadata, with ShadowCheck
// comparing the packed word against it field by field at the end.
func replayShadowDiff(t *testing.T, dc diffConfig, ops []diffOp, shadow bool) diffSnapshot {
	t.Helper()
	m := New(dc.cfg)
	if shadow {
		m.Mem.EnableShadow()
	}
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
			if fit := (v.End()-va-1)/op.stride + 1; uint64(count) > fit {
				count = int(fit)
			}
		}
		m.AccessRun(va, count, op.stride)
	}

	if shadow {
		if err := m.Mem.ShadowCheck(); err != nil {
			t.Fatalf("%s: packed frame metadata diverged from the unpacked reference: %v", dc.name, err)
		}
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

// TestPackedFrameInfoDifferential is the packed-metadata equivalence
// property test: across the five standard machine configurations, a
// random access script must produce fully DeepEqual statistics whether
// or not the physical node mirrors every frame-metadata write into the
// unpacked reference layout — and the mirror itself must match the
// packed words field by field at the end (ShadowCheck inside the
// shadow replay). Divergence means a packed accessor or setter is
// corrupting a neighboring bit field.
func TestPackedFrameInfoDifferential(t *testing.T) {
	for _, dc := range diffConfigs() {
		t.Run(dc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xF007))
			for round := 0; round < 4; round++ {
				ops := randomOps(rng, 150)
				plain := replayShadowDiff(t, dc, ops, false)
				mirrored := replayShadowDiff(t, dc, ops, true)
				if !reflect.DeepEqual(plain, mirrored) {
					t.Fatalf("round %d: stats diverge with the shadow mirror enabled:\nplain:    %+v\nmirrored: %+v",
						round, plain, mirrored)
				}
			}
		})
	}
}
