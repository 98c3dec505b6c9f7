//simlint:fastpath

// Package sl009 seeds SL008's gathered shape: scalar Access dispatch
// over collected VA slices in a file tagged //simlint:fastpath — the
// irregular batches the AccessGather path exists to coalesce.
package sl009

type machine struct{ n uint64 }

func (m *machine) Access(va uint64)          { m.n++ }
func (m *machine) AccessGather(vas []uint64) { m.n += uint64(len(vas)) }

func (m *machine) bad(vas []uint64) {
	for _, va := range vas {
		m.Access(va) // SL008: range value feeds Access
	}
	for i := range vas {
		m.Access(vas[i]) // SL008: range key indexes the VA slice
	}
	for i := 0; i < len(vas); i++ {
		m.Access(vas[i]) // SL008: post-stepped index into the VA slice
	}
}

func (m *machine) fine(vas []uint64, ids []uint32, base uint64) {
	m.AccessGather(vas) // the gather path itself: free
	for i := 0; i < len(vas); {
		m.Access(vas[i]) // index advanced in the body: a degradation
		i++              // loop re-checking preconditions per element
	}
	for _, id := range ids {
		m.Access(base + uint64(id)*8) // not a collected VA slice: free
	}
}
