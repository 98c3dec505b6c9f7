package tlb

// Clone returns an independent deep copy of the hierarchy: same
// configuration, same cached translations in the same recency order,
// same counters. A forked machine replays translation behaviour
// bit-exactly from the clone point, and nothing the clone does is
// visible to the original (or vice versa).
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		cfg:      h.cfg,
		l14k:     h.l14k.Clone(),
		l12m:     h.l12m.Clone(),
		stlb:     h.stlb.Clone(),
		pwcPDE:   h.pwcPDE.Clone(),
		pwcPDPTE: h.pwcPDPTE.Clone(),
		pwcPML4E: h.pwcPML4E.Clone(),
		stats:    h.stats,
	}
}
