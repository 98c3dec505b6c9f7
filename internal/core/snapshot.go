package core

import (
	"graphmem/internal/analytics"
	"graphmem/internal/machine"
	"graphmem/internal/memsys"
	"graphmem/internal/stats"
	"graphmem/internal/workload"
)

// This file is the snapshot/fork layer over the load phase (DESIGN.md
// §5b): a Checkpoint freezes a machine immediately after the init
// phase, and every kernel that shares that load phase runs on a fork
// of the frozen state instead of replaying environment staging and
// init faulting from scratch. Forks are audited deep copies — the
// machine, its address space, physical node, kernel policy engine, TLB
// and cache hierarchies are cloned, and frame owners that live outside
// the machine (memhog, page cache) are cloned and remapped — so a
// forked kernel produces bit-identical cycles and statistics to the
// monolithic Run path. The GRAPHMEM_NO_SNAPSHOT escape hatch proves
// it: with the variable set, Fork replays the load phase monolithically
// and CI diffs the two campaign outputs byte for byte (scripts/ci.sh),
// exactly as GRAPHMEM_NO_BATCH gates the access engine's batching.

// SnapshotsDisabled reports whether the GRAPHMEM_NO_SNAPSHOT escape
// hatch is open (HatchDisabled): checkpoints then hold no machine and
// every fork replays its load phase from the spec.
func SnapshotsDisabled() bool { return HatchDisabled(HatchSnapshot) }

// Checkpoint is a load phase frozen for forking: the machine state the
// moment init completed. Fork yields independent machine+image pairs
// that all start from that state; Run executes the spec's own kernel
// phase on such a fork.
//
// With GRAPHMEM_NO_SNAPSHOT set the checkpoint holds no machine at
// all: Prepare defers the load phase, and each Fork replays it from
// the spec — the pre-snapshot behaviour, preserved as the reference
// side of the CI equivalence diff.
type Checkpoint struct {
	spec RunSpec
	pre  *prepared // nil when snapshotting is disabled
}

// Prepare runs spec's load phase once and freezes it. It fails on any
// load-phase error Run would report. When GRAPHMEM_NO_SNAPSHOT is set,
// the load phase is deferred to Fork time instead (so disabling
// snapshots costs one replay per fork, not one extra replay overall).
func Prepare(spec RunSpec) (*Checkpoint, error) {
	cp := &Checkpoint{spec: spec}
	if SnapshotsDisabled() {
		return cp, nil
	}
	p, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	cp.pre = p
	return cp, nil
}

// Spec returns the spec the checkpoint was prepared from.
func (cp *Checkpoint) Spec() RunSpec { return cp.spec }

// Fork returns an independent machine+image pair positioned at the end
// of the load phase. Snapshot-on, that is a deep copy of the frozen
// machine: the address space is cloned, frame owners living outside
// the machine (the memhog's pin list, the page cache's resident set)
// are cloned and remapped, the image is rebound to the forked space,
// and the result is audited (under -tags simcheck) before use.
// Snapshot-off, the load phase is replayed from the spec — identical
// state by the simulator's determinism, at full load-phase cost.
func (cp *Checkpoint) Fork() (*machine.Machine, *analytics.Image, error) {
	if cp.pre == nil {
		p, err := prepare(cp.spec)
		if err != nil {
			return nil, nil, err
		}
		return p.m, p.img, nil
	}
	fm, img := ForkPair(cp.pre.m, cp.pre.img)
	return fm, img, nil
}

// ForkPair deep-copies a machine+image pair positioned anywhere in a
// run — right after init (what Checkpoint.Fork does) or mid-kernel (the
// rollout experiment forks a warmed machine once per candidate policy).
// Frame owners living outside the machine (the memhog's pin list, the
// page cache's resident set) are cloned exactly once per fork and
// remapped; an owner type this switch does not know makes the memsys
// clone panic, because an unaccounted owner means an incomplete
// snapshot. The image is rebound to the forked space and the result is
// audited (under -tags simcheck) before use.
func ForkPair(m *machine.Machine, img *analytics.Image) (*machine.Machine, *analytics.Image) {
	clones := make(map[memsys.Owner]memsys.Owner)
	fm := m.Fork(func(old memsys.Owner, mem *memsys.Memory) memsys.Owner {
		if n, ok := clones[old]; ok {
			return n
		}
		var n memsys.Owner
		switch o := old.(type) {
		case *workload.Memhog:
			n = o.Clone(mem)
		case *workload.PageCache:
			n = o.Clone(mem)
		default:
			return nil // unknown owner: memsys.Clone fails loudly
		}
		clones[old] = n
		return n
	})
	fimg := img.Rebind(fm)
	auditMachine(fm)
	return fm, fimg
}

// Run executes the spec's kernel phase on a fresh Fork and assembles
// the RunResult, exactly as the monolithic Run would have — fork
// fidelity is what the CI equivalence gate verifies.
func (cp *Checkpoint) Run() (*RunResult, error) {
	if cp.pre == nil {
		return Run(cp.spec)
	}
	fm, img := ForkPair(cp.pre.m, cp.pre.img)
	return cp.pre.finish(fm, img), nil
}

// Footprint reports the frozen machine's simulator-side memory
// breakdown (stats.Footprint). It returns false when snapshotting is
// disabled — there is no resident machine to introspect until a fork
// replays the load phase.
func (cp *Checkpoint) Footprint() (stats.Footprint, bool) {
	if cp.pre == nil {
		return stats.Footprint{}, false
	}
	return cp.pre.m.Footprint(), true
}
