package machine

import "graphmem/internal/vm"

// The event layer. Background actors — the kernel's khugepaged cadence
// and the built-in huge page supply sampler — each have a cycle
// deadline. armEvents folds them into a single nextEvent value, so
// Access pays one compare per reference and full dispatch runs only
// when something is actually due.
//
// Bit-exactness argument (vs. the pre-event engine, which called
// Kernel.Tick and checked every periodic actor on every access): each
// actor's own due-check is unchanged — Tick still guards on
// now-lastScan < interval, the sampler still fires when
// now-last >= every — and deadlines are exactly the cycles at which
// those guards first pass (lastScan+interval, last+every). Between
// deadlines neither engine fires anything; at a deadline both dispatch
// in the same order (kernel first, then the sampler) with the same now.
// A kernel whose mode disables scanning keeps a stale deadline in the
// past, so Tick is still invoked per access and still returns early —
// identical to the old engine, and immune to runtime SetMode flips.
//
// Every actor is plain machine state, so Fork copies it and Encode
// serializes it like any other field: no closure ever runs on the
// event path.

// SupplySample is one point of the huge page economy (the paper's
// Fig. 6): how many free 2MB blocks remain and how much of each key
// array is huge-backed. Pointer-free and padding-free, so checkpoints
// store the timeline as one raw slice.
type SupplySample struct {
	Cycles         uint64
	FreeHugeBlocks uint64
	EdgeHugeBytes  uint64
	PropHugeBytes  uint64
}

// supplySampler is the built-in huge page supply sampler. every == 0
// means off; otherwise a sample is appended once the machine has run
// every cycles past last, the same deadline rule as khugepaged's.
type supplySampler struct {
	every      uint64
	last       uint64
	edge, prop *vm.VMA
	samples    []SupplySample
}

// clone copies the sampler into a fork whose address space is space:
// the fork owns its own samples slice and samples its own VMAs.
func (s *supplySampler) clone(space *vm.AddressSpace) supplySampler {
	c := supplySampler{
		every:   s.every,
		last:    s.last,
		samples: append([]SupplySample(nil), s.samples...),
	}
	if s.edge != nil {
		c.edge = space.Counterpart(s.edge)
	}
	if s.prop != nil {
		c.prop = space.Counterpart(s.prop)
	}
	return c
}

// SampleSupply starts sampling the huge page economy every `every`
// simulated cycles, recording how much of edge and prop is huge-backed
// next to the node's free 2MB block count. The first deadline counts
// from cycle 0, so a sampler started mid-run fires on the next access.
// Zero stops sampling; samples already taken are kept.
func (m *Machine) SampleSupply(every uint64, edge, prop *vm.VMA) {
	m.supply.every, m.supply.last = every, 0
	m.supply.edge, m.supply.prop = edge, prop
	m.armEvents()
}

// SupplyEvery returns the supply sampling interval (0 = off).
func (m *Machine) SupplyEvery() uint64 { return m.supply.every }

// Supply returns the supply timeline sampled so far (nil when sampling
// never fired).
func (m *Machine) Supply() []SupplySample { return m.supply.samples }

// armEvents recomputes nextEvent as the earliest deadline of any
// background actor, the kernel's first. ^uint64(0) means nothing is
// due ever (the fast path's compare then never fires).
func (m *Machine) armEvents() {
	next := m.Kernel.NextTickAt()
	if s := &m.supply; s.every != 0 && s.last+s.every < next {
		next = s.last + s.every
	}
	m.nextEvent = next
}

// runEvents dispatches every actor whose deadline has passed and
// re-arms. Called from Access when m.cycles >= m.nextEvent.
func (m *Machine) runEvents() {
	now := m.cycles
	m.Kernel.Tick(now)
	if s := &m.supply; s.every != 0 && now-s.last >= s.every {
		s.last = now
		_, edgeHuge := s.edge.MappedBytes()
		_, propHuge := s.prop.MappedBytes()
		s.samples = append(s.samples, SupplySample{
			Cycles:         now,
			FreeHugeBlocks: m.Mem.FreeHugeBlocks(),
			EdgeHugeBytes:  edgeHuge,
			PropHugeBytes:  propHuge,
		})
	}
	m.armEvents()
}
