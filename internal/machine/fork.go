package machine

import (
	"graphmem/internal/memsys"
	"graphmem/internal/vm"
)

// Fork returns an independent deep copy of the full machine state:
// physical memory, address space, kernel policy engine, TLB and cache
// hierarchies, the translation cache, cycle accounting, event
// deadlines, the supply sampler, and all phase/array statistics. From
// the fork point the copy and the original evolve as two machines that
// happened to reach the same state — identical access streams produce
// bit-identical cycle counts and statistics on both, and neither can
// observe the other.
//
// remapOwner translates frame owners that live OUTSIDE the machine
// (workload structures such as a pinned memhog or a page cache,
// registered with memsys via Alloc/SetOwner) to their counterparts in
// the fork; it receives the cloned physical node so replacements can
// bind to it. The machine's own address space is remapped internally.
// Pass nil when no external owners exist. An owner neither side can
// translate makes the underlying memsys clone panic: an unaccounted
// owner means the snapshot would be incomplete.
//
// A fork starts untraced: a tracer is an outside consumer, not machine
// state.
func (m *Machine) Fork(remapOwner func(memsys.Owner, *memsys.Memory) memsys.Owner) *Machine {
	space := m.Space.Clone()
	remap := func(o memsys.Owner, nm *memsys.Memory) memsys.Owner {
		if o == memsys.Owner(m.Space) {
			return space
		}
		if remapOwner != nil {
			return remapOwner(o, nm)
		}
		return nil
	}
	mem := m.Mem.Clone(remap)
	space.AttachMem(mem)
	f := &Machine{
		Mem:        mem,
		Space:      space,
		Kernel:     m.Kernel.Clone(mem, space),
		Model:      m.Model,
		cycles:     m.cycles,
		simPT:      m.simPT,
		noBatch:    m.noBatch,
		nextEvent:  m.nextEvent,
		supply:     m.supply.clone(space),
		tracer:     nil,
		shardState: m.shardState.clone(),
	}
	// Translation-cache entries carry *VMA pointers into the original
	// space; live entries are remapped to the cloned VMAs and empty
	// ones cleared (an empty entry may still hold a stale pointer from
	// before the last shootdown — remapping it could even hit a VMA
	// that no longer exists).
	if m.trSpan != 0 {
		f.tr = remapTranslation(m.tr, space)
	}
	for i := range f.trWide {
		if f.trWide[i].span == 0 {
			f.trWide[i] = trEntry{}
		} else {
			f.trWide[i].tr = remapTranslation(f.trWide[i].tr, space)
		}
	}
	space.Shootdown = f.shootdown
	return f
}

// remapTranslation rebinds a cached translation's VMA pointer to the
// cloned address space. Frame numbers and sizes are identical across
// the fork (the physical layout is copied verbatim), so only the
// pointer needs translating.
func remapTranslation(tr vm.Translation, space *vm.AddressSpace) vm.Translation {
	if tr.VMA != nil {
		tr.VMA = space.Counterpart(tr.VMA)
	}
	return tr
}
