package tlb

import (
	"graphmem/internal/assoc"
	"graphmem/internal/ckpt"
)

// Checkpoint codec (DESIGN.md §5e). Every set-associative array's tags
// are serialized in recency order: replacement decisions depend on that
// exact order, so anything less would break the loaded-equals-staged
// determinism contract (MODEL.md §7). assoc.Sets.Decode validates each
// array against the decoded Config with the same rules New enforces —
// but by failing the Decoder instead of panicking, since the image may
// be hostile.

func (c *SetConfig) encode(e *ckpt.Encoder) {
	e.Int(c.Entries)
	e.Int(c.Ways)
}

func (c *SetConfig) decode(d *ckpt.Decoder) {
	c.Entries = d.Int()
	c.Ways = d.Int()
	if c.Entries < 0 || c.Entries > 1<<30 || c.Ways < 0 || c.Ways > 1<<20 {
		d.Failf("tlb: set config %d entries / %d ways out of range", c.Entries, c.Ways)
	}
}

func (c *Config) encode(e *ckpt.Encoder) {
	e.String(c.Name)
	c.L1D4K.encode(e)
	c.L1D2M.encode(e)
	c.STLB.encode(e)
	c.PWCPDE.encode(e)
	c.PWCPDPTE.encode(e)
	c.PWCPML4E.encode(e)
}

func (c *Config) decode(d *ckpt.Decoder) {
	c.Name = d.String()
	c.L1D4K.decode(d)
	c.L1D2M.decode(d)
	c.STLB.decode(d)
	c.PWCPDE.decode(d)
	c.PWCPDPTE.decode(d)
	c.PWCPML4E.decode(d)
}

func (s *Stats) Encode(e *ckpt.Encoder) {
	e.U64(s.Lookups)
	e.U64(s.L1Misses)
	e.U64(s.STLBMisses)
	e.U64(s.WalkCycles)
}

func (s *Stats) Decode(d *ckpt.Decoder) {
	s.Lookups = d.U64()
	s.L1Misses = d.U64()
	s.STLBMisses = d.U64()
	s.WalkCycles = d.U64()
}

// Encode serializes the hierarchy: config, the six set-associative
// arrays, and the counters.
func (h *Hierarchy) Encode(e *ckpt.Encoder) {
	h.cfg.encode(e)
	for _, s := range h.arrays() {
		s.Encode(e)
	}
	h.stats.Encode(e)
}

// Decode is Encode's inverse, into a fresh receiver. On any decoder
// error the receiver must be discarded.
func (h *Hierarchy) Decode(d *ckpt.Decoder) {
	h.cfg.decode(d)
	decode := func(c SetConfig, name string) *assoc.Sets {
		s := new(assoc.Sets)
		s.Decode(d, c.Entries, c.Ways, "tlb: "+name)
		return s
	}
	h.l14k = decode(h.cfg.L1D4K, "l14k")
	h.l12m = decode(h.cfg.L1D2M, "l12m")
	h.stlb = decode(h.cfg.STLB, "stlb")
	h.pwcPDE = decode(h.cfg.PWCPDE, "pwcPDE")
	h.pwcPDPTE = decode(h.cfg.PWCPDPTE, "pwcPDPTE")
	h.pwcPML4E = decode(h.cfg.PWCPML4E, "pwcPML4E")
	h.stats.Decode(d)
}
