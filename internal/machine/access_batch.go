//simlint:fastpath

package machine

import (
	"graphmem/internal/cache"
	"graphmem/internal/memsys"
)

// This file is the batch engine: one coalescing loop behind both batched
// entry points. AccessRun streams a constant stride (CSR offset pairs,
// edge-array neighbor runs, sequential property sweeps); AccessGather
// walks a collected address slice (property reads for a vertex's
// neighbors, frontier writes, relaxation scatters). Either is
// arithmetically identical to dispatching its addresses one by one
// through Access, in every observable: Cycles, phase stats, heat,
// per-array attribution, TLB/cache counters and LRU state, event
// dispatch, and traces (DESIGN.md §4c).
//
// The engine exploits what the scalar loop would rediscover one access
// at a time: consecutive same-page references are L1 TLB hits after the
// first, and consecutive same-line references are L1 data hits after the
// first, so their per-access work reduces to counter arithmetic. A batch
// is cut into page segments (one real TLB resolution each) and, inside a
// segment, line runs (one real data-cache probe per line, the run's
// remaining accesses charged as guaranteed L1 hits). Segments split
// exactly where the scalar loop would change behaviour:
//
//   - translation-cache miss (new page, fault, shootdown): the split
//     access goes through the scalar path, which refills the cache —
//     probing the victim array (access_slow.go) before walking — and
//     services any fault at the same cycle the scalar loop would;
//   - the nextEvent cycle deadline: the line run is truncated to the
//     access that first reaches the deadline, accumulated accounting is
//     flushed, and events run at the same cycle the scalar loop would
//     run them.
//
// The two address sequences differ only in where a same-line run ends.

// addrSeq is the address sequence one batch walks: at(i) is access i's
// virtual address, and lineEnd(i, n) is the first index in (i, n] whose
// address leaves at(i)'s cache line. Accesses i+1 … lineEnd(i, n)−1 lie
// on that line, so they share its page too.
type addrSeq interface {
	at(i int) uint64
	lineEnd(i, n int) int
}

// strided is AccessRun's sequence: va, va+stride, va+2·stride, … The run
// end is arithmetic, and stride 0 keeps the rest of the batch on one
// line.
type strided struct{ va, stride uint64 }

func (s strided) at(i int) uint64 { return s.va + uint64(i)*s.stride }

func (s strided) lineEnd(i, n int) int {
	if s.stride == 0 {
		return n
	}
	va := s.at(i)
	k := (va|(1<<cache.LineShift-1)-va)/s.stride + 1 // accesses from i still on the line
	if k >= uint64(n-i) {
		return n
	}
	return i + int(k)
}

// gathered is AccessGather's sequence: the collected slice itself. The
// run end comes from a scan.
type gathered []uint64

func (s gathered) at(i int) uint64 { return s[i] }

func (s gathered) lineEnd(i, n int) int {
	s = s[:n] // n == len(s); the reslice lets the scan drop its bounds checks
	line := s[i] >> cache.LineShift
	j := i + 1
	for j < len(s) && s[j]>>cache.LineShift == line {
		j++
	}
	return j
}

// AccessRun simulates count data accesses starting at va and advancing
// by stride bytes each time; it is identical to
//
//	for ; count > 0; count-- { m.Access(va); va += stride }
func (m *Machine) AccessRun(va uint64, count int, stride uint64) {
	runBatch(m, strided{va, stride}, count) //simlint:ignore SL012 batch entry; the engine waives its own fault/event escapes
}

// AccessGather simulates one data memory access per address in vas, in
// slice order; it is identical to
//
//	for _, va := range vas { m.Access(va) }
func (m *Machine) AccessGather(vas []uint64) {
	runBatch(m, gathered(vas), len(vas)) //simlint:ignore SL012 batch entry; the engine waives its own fault/event escapes
}

// runBatch dispatches accesses 0 … n−1 of s. A tracer attached (trace
// capture) sends the whole batch per access so traces stay
// byte-identical; event dispatch cannot attach one, so the check is made
// once per call. GRAPHMEM_NO_BATCH=1 or SetBatch(false) degrade the
// whole batch to scalar dispatch too; the CI gate diffs a campaign run
// both ways.
func runBatch[S addrSeq](m *Machine, s S, n int) {
	// Per-access dispatch when batching is off or unsound: batching
	// disabled, tracer attached, or a zero-cost hit model (the
	// event-split division needs cHit > 0).
	if m.noBatch || m.tracer != nil || m.Model.L1DHit+m.Model.Compute == 0 {
		accessScalar(m, s, n) //simlint:ignore SL012 per-batch fallback; Access waives its own fault/event escapes
		return
	}
	for i := 0; i < n; {
		// Scalar dispatch for any access the engine cannot batch: a
		// translation-cache miss (new page, unmapped/faulting page,
		// shootdown), a due or stale event deadline (a mode-disabled
		// kernel keeps its deadline in the past so Tick runs per
		// access), or an L1 TLB array with no capacity for this page
		// size.
		va := s.at(i)
		if va-m.trBase >= m.trSpan || m.cycles >= m.nextEvent || !m.TLB.L1Holds(m.tr.Size) {
			m.Access(va) //simlint:ignore SL012 scalar fallback; Access waives its own fault/event escapes
			i++
			continue
		}
		i = batchSegment(m, s, i, n) //simlint:ignore SL012 segment body allocates only via waived event dispatch
	}
}

// batchSegment batches accesses i, i+1, … of s while they stay inside
// the translation cache's current page, returning the index of the first
// unprocessed access. The caller established: batching enabled, no
// tracer, at(i) inside the cached page, L1 TLB capacity for its size,
// and cycles < nextEvent.
func batchSegment[S addrSeq](m *Machine, s S, i, n int) int {
	// The segment's first access takes the full scalar path: it does
	// the real TLB lookup — installing (or refreshing) L1 residency the
	// rest of the segment relies on — the real data-cache probe, and
	// any due event dispatch.
	lineVA := s.at(i)
	m.Access(lineVA) //simlint:ignore SL012 segment head takes the scalar path; escapes waived in Access
	j := s.lineEnd(i, n)
	i++
	// Re-establish the batching preconditions: the event dispatch inside
	// Access may have shot down the translation or left a stale deadline.
	if i == n || lineVA-m.trBase >= m.trSpan || m.cycles >= m.nextEvent {
		return i
	}

	// From here until the segment ends, every access hits the page's L1
	// TLB entry, stays within the same heat bucket (pages never span the
	// VMA's 2MB regions), and costs cHit cycles on a same-line hit. Real
	// work per iteration is one data-cache probe per line; everything
	// else accumulates into done/data and flushes at the split.
	base, span := m.trBase, m.trSpan
	paDelta := uint64(m.tr.Frame)<<memsys.PageShift - m.tr.BaseVA
	cHit := m.Model.L1DHit + m.Model.Compute
	// cycles and the event deadline live in locals for the duration of
	// the loop: nothing called from it reads them (the Hierarchy knows
	// nothing of machine time), so they write back only where control
	// leaves — before flushBatch, whose events must see true time.
	cyc, deadline := m.cycles, m.nextEvent
	var done, data uint64
	// Each loop trip charges the last probed line's followers i … j−1
	// (lineVA's line is L1-resident), then does the real probe for the
	// next new line.
	for {
		if k := uint64(j - i); k > 0 {
			// Truncate the run at the event deadline: the t-th hit is
			// the first access at which cycles reaches nextEvent,
			// exactly where the scalar loop would dispatch. The divide
			// only runs when the deadline lands inside this run
			// (gap ≤ (k−1)·cHit ⇔ ceil(gap/cHit) < k), keeping the
			// common path division-free.
			gap := deadline - cyc // > 0: loop invariant
			if gap <= (k-1)*cHit {
				k = (gap-1)/cHit + 1
			}
			m.Cache.AccessRepeatL1(lineVA+paDelta, k)
			cyc += k * cHit
			done += k
			data += k * cHit
			i += int(k)
			if cyc >= deadline {
				break
			}
		}
		if i == n {
			break
		}
		va := s.at(i)
		if va-base >= span {
			break
		}
		// First access on a new line: real data-cache probe (the fill
		// makes the line resident for the run above). Translation is
		// still a guaranteed L1 TLB hit, so the access costs data only.
		lineVA = va
		j = s.lineEnd(i, n)
		var d uint64
		switch m.Cache.Access(va + paDelta) {
		case cache.HitL1:
			d = m.Model.L1DHit
		case cache.HitLLC:
			d = m.Model.LLCHit
		default:
			d = m.Model.DRAM
		}
		d += m.Model.Compute
		cyc += d
		done++
		data += d
		i++
		if cyc >= deadline {
			break
		}
	}
	m.cycles = cyc
	m.flushBatch(done, data)
	if cyc >= deadline {
		m.runEvents() //simlint:ignore SL012 due-event dispatch, once per deadline: khugepaged's scan and the supply sampler's append may allocate
	}
	return i
}

// flushBatch applies a segment's accumulated accounting — the per-access
// increments the scalar loop interleaves — before anything can observe
// it: always before runEvents (khugepaged reads heat; shootdowns follow
// the refreshes, as they do scalar) and before batchSegment returns. All
// done accesses were translation L1 hits on the page's entry and data
// hits/probes whose cycles are in data; m.cycles itself was written back
// by the caller, so only the phase mirror is added here.
func (m *Machine) flushBatch(done, data uint64) {
	if done == 0 {
		return
	}
	tr := &m.tr
	m.TLB.LookupRepeatHit(tr.BaseVA, tr.Size, done)
	v := tr.VMA
	v.AddHeat(int((tr.BaseVA-v.Base)>>21), done)
	if tag := v.StatsTag; tag >= 0 {
		m.arrays[tag].Accesses += done
	}
	m.phase.DataCycles += data
	m.phase.Cycles += data
	m.phase.Accesses += done
}
