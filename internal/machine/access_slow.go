package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/tlb"
	"graphmem/internal/vm"
)

// This file is the access engine's slow path: everything Access only
// does when a probe misses. Page faults and translation-cache refills
// live in refillTranslation; STLB probes, page walks, simulated-PTE
// fetches, and TLB fills live in translateMiss. Keeping these bodies out
// of access.go keeps the fast path small enough for the compiler to lay
// out tightly and makes the rare/common split auditable.

// refillTranslation reloads the machine's primary translation-cache
// entry for va, servicing a page fault if the page is unmapped or
// swapped. It returns the fault cycles charged to the critical path
// (zero when the page was already mapped and only the cache was cold).
//
// Before walking the page table it probes the victim array (trWide): an
// irregular gather alternating between a handful of hot pages misses the
// primary entry on nearly every reference, and the victim hit resolves
// it without the radix walk. The probe is functional-only — a Translate
// success charges no cycles either — so the modeled cost is unchanged.
// On a victim hit the displaced primary entry swaps into the hit slot.
//
// The kernel's HandleFault returns the translation of the mapping it
// installed, so the fault path needs no second radix walk: the returned
// translation seeds the cache directly. Any shootdowns fired while the
// fault was serviced (reclaim, demotion, compaction) happened before
// HandleFault returned — clearing every cache entry, victims included —
// so the seed cannot be stale.
func (m *Machine) refillTranslation(va uint64) uint64 {
	for i := range m.trWide {
		if e := m.trWide[i]; va-e.base < e.span {
			m.trWide[i] = trEntry{base: m.trBase, span: m.trSpan, tr: m.tr}
			m.tr, m.trBase, m.trSpan = e.tr, e.base, e.span
			return 0
		}
	}
	tr, fault, ok := m.Space.Translate(va)
	var fc uint64
	if !ok {
		if fault == nil {
			panic(check.Failf("machine: access to unmapped address %#x", va))
		}
		tr, fc = m.Kernel.HandleFault(fault)
		m.phase.FaultCycles += fc
	}
	m.tr = tr
	m.trBase = tr.BaseVA
	m.trSpan = tr.Size.Bytes()
	m.trWide[m.trVictim] = trEntry{base: m.trBase, span: m.trSpan, tr: tr}
	m.trVictim++
	if m.trVictim == trCacheWays {
		m.trVictim = 0
	}
	return fc
}

// accessScalar dispatches accesses 0 … n−1 of s one by one through the
// scalar Access path — the batch engine's degradation loop. It lives in
// this untagged file because a scalar Access loop over a batch's
// addresses is exactly what rule SL008 forbids in
// fastpath-tagged files; here it is the deliberate fallback, not a
// missed batching opportunity.
func accessScalar[S addrSeq](m *Machine, s S, n int) {
	for i := 0; i < n; i++ {
		m.Access(s.at(i))
	}
}

// translateMiss charges the translation cost beyond an L1 TLB hit: an
// STLB hit, or a full page walk (page-walk-cache-accelerated, with the
// deepest levels either costed by the constant model or fetched through
// the data cache hierarchy when page tables are simulated). Walked
// translations are filled back into the TLB.
func (m *Machine) translateMiss(va uint64, size vm.PageSizeClass, res tlb.Result) uint64 {
	if res.STLBHit {
		return m.Model.STLBHit
	}
	memLv, pwcLv := m.TLB.WalkCost(va, size)
	trCycles := m.Model.STLBHit + uint64(pwcLv)*m.Model.WalkLevelPWC
	if m.simPT {
		// Fetch the walked entries through the cache hierarchy: the
		// deepest memLv levels go to memory.
		addrs, _ := m.Space.WalkEntryAddrs(va, size)
		for i := 0; i < memLv; i++ {
			switch m.Cache.Access(addrs[i]) {
			case cache.HitL1:
				trCycles += m.Model.L1DHit
			case cache.HitLLC:
				trCycles += m.Model.LLCHit
			default:
				trCycles += m.Model.DRAM
			}
		}
	} else {
		trCycles += uint64(memLv) * m.Model.WalkLevel
	}
	m.TLB.AddWalkCycles(trCycles)
	m.TLB.Fill(va, size)
	return trCycles
}
