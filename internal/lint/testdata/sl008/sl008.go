//simlint:fastpath

// Package sl008 seeds SL008's strided shape: scalar Access calls inside
// constant-stride loops in a file tagged //simlint:fastpath — the
// sequential streams the bulk AccessRun path exists to coalesce.
package sl008

type machine struct{ n uint64 }

func (m *machine) Access(va uint64)                     { m.n++ }
func (m *machine) AccessRun(va uint64, c int, s uint64) { m.n += uint64(c) }

func (m *machine) bad(base, end uint64) {
	for a := base; a < end; a += 64 {
		m.Access(a) // SL008: constant post delta feeds the address
	}
	for i := 0; i < 128; i++ {
		m.Access(base + uint64(i)*8) // SL008: address derived from i
	}
}

func (m *machine) fine(base uint64, count int, stride uint64) {
	for ; count > 0; count-- {
		m.Access(base) // post updates count, not the address: free
		base += stride
	}
	for a := base; a < base+1024; a += stride {
		m.Access(a) // runtime stride: not provably constant, free
	}
	m.AccessRun(base, count, 64) // the bulk path itself: free
}
