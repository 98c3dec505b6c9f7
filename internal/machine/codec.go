package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// Checkpoint codec (DESIGN.md §5e). Encode writes the composed state
// vector in an order chosen for Decode's rebuild dependencies, which
// mirror Fork's: the address space is decoded first (it needs nothing),
// then physical memory (whose owner table points back at the space),
// then the space is attached to the node and its frame references
// bounds-checked, then the kernel (which binds to both), and finally
// the per-shard simulation state. The shootdown callback is installed
// last, exactly where Fork installs it.

// encodeVMARef writes a VMA reference as the VMA's base address
// (0 = nil).
func encodeVMARef(e *ckpt.Encoder, v *vm.VMA) {
	if v != nil {
		e.U64(v.Base)
	} else {
		e.U64(0)
	}
}

// decodeVMARef resolves a reference written by encodeVMARef against the
// already-decoded space.
func decodeVMARef(d *ckpt.Decoder, space *vm.AddressSpace) *vm.VMA {
	vbase := d.U64()
	if vbase == 0 || d.Err() != nil {
		return nil
	}
	v := space.FindVMA(vbase)
	if v == nil || v.Base != vbase {
		d.Failf("machine: reference names no VMA at %#x", vbase)
		return nil
	}
	return v
}

func encodeTranslation(e *ckpt.Encoder, tr vm.Translation) {
	e.U32(uint32(tr.Frame))
	e.U8(uint8(tr.Size))
	e.U64(tr.BaseVA)
	encodeVMARef(e, tr.VMA)
}

func decodeTranslation(d *ckpt.Decoder, space *vm.AddressSpace) vm.Translation {
	var tr vm.Translation
	tr.Frame = memsys.Frame(d.U32())
	tr.Size = vm.PageSizeClass(d.U8())
	tr.BaseVA = d.U64()
	tr.VMA = decodeVMARef(d, space)
	if tr.Size > vm.Page2M {
		d.Failf("machine: translation page size class %d unknown", tr.Size)
	}
	return tr
}

func (s *supplySampler) encode(e *ckpt.Encoder) {
	e.U64(s.every)
	e.U64(s.last)
	encodeVMARef(e, s.edge)
	encodeVMARef(e, s.prop)
	ckpt.EncodeSlice(e, s.samples)
}

func (s *supplySampler) decode(d *ckpt.Decoder, space *vm.AddressSpace) {
	s.every = d.U64()
	s.last = d.U64()
	s.edge = decodeVMARef(d, space)
	s.prop = decodeVMARef(d, space)
	s.samples = ckpt.DecodeSlice[SupplySample](d)
	// A running sampler reads both VMAs on every sample.
	if s.every != 0 && (s.edge == nil || s.prop == nil) {
		d.Failf("machine: supply sampler runs without its edge and property VMAs")
	}
}

// checkTranslation fails the decoder unless a live cached translation
// is one the fast path can consume without bounds checks: the window
// sits inside its VMA (accountHeat indexes region heat from it) and the
// frame sits inside the node.
func checkTranslation(d *ckpt.Decoder, tr vm.Translation, base, span uint64, total uint64) {
	if d.Err() != nil {
		return
	}
	if span != tr.Size.Bytes() || tr.BaseVA != base {
		d.Failf("machine: cached translation window [%#x,+%d) does not match its page class", base, span)
		return
	}
	if tr.VMA == nil || base < tr.VMA.Base || base+span > tr.VMA.End() {
		d.Failf("machine: cached translation window [%#x,+%d) escapes its VMA", base, span)
		return
	}
	frames := span / memsys.PageSize
	if uint64(tr.Frame)%frames != 0 || uint64(tr.Frame)+frames > total {
		d.Failf("machine: cached translation frame %d misaligned or out of range", tr.Frame)
	}
}

func (a *ArrayStats) encode(e *ckpt.Encoder) {
	e.String(a.Name)
	e.U64(a.Accesses)
	e.U64(a.L1Misses)
	e.U64(a.Walks)
}

func (a *ArrayStats) decode(d *ckpt.Decoder) {
	a.Name = d.String()
	a.Accesses = d.U64()
	a.L1Misses = d.U64()
	a.Walks = d.U64()
}

func (p *PhaseStats) encode(e *ckpt.Encoder) {
	e.String(p.Name)
	e.U64(p.Cycles)
	e.U64(p.Accesses)
	e.U64(p.DataCycles)
	e.U64(p.TranslationCycles)
	e.U64(p.FaultCycles)
	p.TLB.Encode(e)
	p.Cache.Encode(e)
}

func (p *PhaseStats) decode(d *ckpt.Decoder) {
	p.Name = d.String()
	p.Cycles = d.U64()
	p.Accesses = d.U64()
	p.DataCycles = d.U64()
	p.TranslationCycles = d.U64()
	p.FaultCycles = d.U64()
	p.TLB.Decode(d)
	p.Cache.Decode(d)
}

func (s *shardState) encode(e *ckpt.Encoder) {
	s.TLB.Encode(e)
	s.Cache.Encode(e)
	encodeTranslation(e, s.tr)
	e.U64(s.trBase)
	e.U64(s.trSpan)
	for i := range s.trWide {
		w := s.trWide[i]
		if w.span == 0 {
			// An empty victim entry may hold a stale translation from
			// before the last shootdown; normalize it away, as Fork does.
			w = trEntry{}
		}
		e.U64(w.base)
		e.U64(w.span)
		encodeTranslation(e, w.tr)
	}
	e.Int(s.trVictim)
	s.phase.encode(e)
	s.tlbAtPhase.Encode(e)
	s.cchAtPhase.Encode(e)
	e.Int(len(s.done))
	for i := range s.done {
		s.done[i].encode(e)
	}
	e.Int(len(s.arrays))
	for i := range s.arrays {
		s.arrays[i].encode(e)
	}
}

func (s *shardState) decode(d *ckpt.Decoder, space *vm.AddressSpace, total uint64) {
	s.TLB = new(tlb.Hierarchy)
	s.TLB.Decode(d)
	s.Cache = new(cache.Hierarchy)
	s.Cache.Decode(d)
	s.tr = decodeTranslation(d, space)
	s.trBase = d.U64()
	s.trSpan = d.U64()
	if s.trSpan != 0 {
		checkTranslation(d, s.tr, s.trBase, s.trSpan, total)
	}
	for i := range s.trWide {
		s.trWide[i].base = d.U64()
		s.trWide[i].span = d.U64()
		s.trWide[i].tr = decodeTranslation(d, space)
		if w := s.trWide[i]; w.span != 0 {
			checkTranslation(d, w.tr, w.base, w.span, total)
		} else if w != (trEntry{}) {
			d.Failf("machine: empty translation victim entry %d carries state", i)
		}
	}
	s.trVictim = d.Int()
	if s.trVictim < 0 || s.trVictim >= trCacheWays {
		d.Failf("machine: translation victim cursor %d out of range", s.trVictim)
	}
	s.phase.decode(d)
	s.tlbAtPhase.Decode(d)
	s.cchAtPhase.Decode(d)
	nDone := d.Len(1 << 20)
	s.done = make([]PhaseStats, nDone)
	for i := range s.done {
		s.done[i].decode(d)
	}
	nArrays := d.Len(1 << 20)
	s.arrays = make([]ArrayStats, nArrays)
	for i := range s.arrays {
		s.arrays[i].decode(d)
	}
}

// Encode serializes the whole machine. owner serializes frame owners
// living outside the machine (workload structures); the machine's own
// address space is tagged internally, mirroring Fork's remap split.
func (m *Machine) Encode(e *ckpt.Encoder, owner func(*ckpt.Encoder, memsys.Owner)) {
	_ = m.tracer  // an outside consumer; Decode yields an untraced machine
	_ = m.noBatch // per-process configuration; LoadCheckpoint re-applies the hatch
	e.U64(m.cycles)
	e.Bool(m.simPT)
	e.U64(m.nextEvent)
	m.Model.Encode(e)
	m.Space.Encode(e)
	m.Mem.Encode(e, func(e *ckpt.Encoder, o memsys.Owner) {
		if o == memsys.Owner(m.Space) {
			e.U8(ownerSpace)
			return
		}
		e.U8(ownerExternal)
		owner(e, o)
	})
	m.Kernel.Encode(e)
	m.supply.encode(e)
	m.shardState.encode(e)
}

// Owner-table slot tags written by Machine.Encode.
const (
	ownerSpace    = 1 // the machine's own address space
	ownerExternal = 2 // a workload structure; the caller's codec follows
)

// Decode is Encode's inverse, into a fresh receiver. owner reconstructs
// external frame owners against the node under construction. On any
// decoder error the receiver must be discarded.
func (m *Machine) Decode(d *ckpt.Decoder, owner func(*ckpt.Decoder, *memsys.Memory) memsys.Owner) {
	_ = m.noBatch // per-process configuration; LoadCheckpoint re-applies the hatch
	m.cycles = d.U64()
	m.simPT = d.Bool()
	m.nextEvent = d.U64()
	m.Model.Decode(d)
	m.Space = new(vm.AddressSpace)
	m.Space.Decode(d)
	if d.Err() != nil {
		return
	}
	m.Mem = new(memsys.Memory)
	m.Mem.Decode(d, func(d *ckpt.Decoder, mem *memsys.Memory) memsys.Owner {
		switch tag := d.U8(); tag {
		case ownerSpace:
			return m.Space
		case ownerExternal:
			return owner(d, mem)
		default:
			d.Failf("machine: owner table slot tag %d unknown", tag)
			return nil
		}
	})
	if d.Err() != nil {
		return
	}
	m.Space.AttachMem(m.Mem)
	m.Space.CheckFrames(d)
	m.Kernel = new(oskernel.Kernel)
	m.Kernel.Decode(d, m.Mem, m.Space)
	m.supply.decode(d, m.Space)
	m.shardState.decode(d, m.Space, m.Mem.TotalPages())
	if d.Err() != nil {
		return
	}
	// Per-array attribution indexes m.arrays by VMA.StatsTag without a
	// bounds check on the fast path.
	for _, v := range m.Space.VMAs() {
		if v.StatsTag >= len(m.arrays) {
			d.Failf("machine: VMA %q stats tag %d beyond %d registered arrays",
				v.Name, v.StatsTag, len(m.arrays))
			return
		}
	}
	if m.simPT != m.Space.SimPageTables {
		d.Failf("machine: page-table simulation flag disagrees with address space")
		return
	}
	m.tracer = nil // an outside consumer: a loaded machine starts untraced
	m.Space.Shootdown = m.shootdown
}
