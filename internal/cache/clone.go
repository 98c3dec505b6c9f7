package cache

// Clone returns an independent deep copy of the hierarchy: same
// configuration, same resident lines in the same recency order, same
// counters. A forked machine replays data-cache behaviour bit-exactly
// from the clone point.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{
		cfg:   h.cfg,
		l1:    h.l1.Clone(),
		llc:   h.llc.Clone(),
		stats: h.stats,
	}
}
