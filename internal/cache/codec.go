package cache

import (
	"graphmem/internal/assoc"
	"graphmem/internal/ckpt"
)

// Checkpoint codec (DESIGN.md §5e). Each level's tag array is
// serialized in recency order, which is its whole LRU state, so a loaded
// cache resumes mid-stream exactly where the staged one stopped (an MRU
// line stays MRU for AccessRepeatL1). assoc.Sets.Decode validates each
// array against the decoded Config, failing the Decoder instead of
// panicking on hostile images.

func (c *LevelConfig) encode(e *ckpt.Encoder) {
	e.Int(c.Bytes)
	e.Int(c.Ways)
}

func (c *LevelConfig) decode(d *ckpt.Decoder) {
	c.Bytes = d.Int()
	c.Ways = d.Int()
	if c.Bytes < 0 || c.Bytes > 1<<40 || c.Ways < 0 || c.Ways > 1<<20 {
		d.Failf("cache: level config %d bytes / %d ways out of range", c.Bytes, c.Ways)
	}
}

func (c *Config) encode(e *ckpt.Encoder) {
	e.String(c.Name)
	c.L1D.encode(e)
	c.LLC.encode(e)
}

func (c *Config) decode(d *ckpt.Decoder) {
	c.Name = d.String()
	c.L1D.decode(d)
	c.LLC.decode(d)
}

func (s *Stats) Encode(e *ckpt.Encoder) {
	e.U64(s.Accesses)
	e.U64(s.L1Misses)
	e.U64(s.LLCMiss)
}

func (s *Stats) Decode(d *ckpt.Decoder) {
	s.Accesses = d.U64()
	s.L1Misses = d.U64()
	s.LLCMiss = d.U64()
}

// Encode serializes the hierarchy: config, both levels, counters.
func (h *Hierarchy) Encode(e *ckpt.Encoder) {
	h.cfg.encode(e)
	h.l1.Encode(e)
	h.llc.Encode(e)
	h.stats.Encode(e)
}

// Decode is Encode's inverse, into a fresh receiver. On any decoder
// error the receiver must be discarded.
func (h *Hierarchy) Decode(d *ckpt.Decoder) {
	h.cfg.decode(d)
	h.l1 = new(assoc.Sets)
	h.l1.Decode(d, h.cfg.L1D.lines(), h.cfg.L1D.Ways, "cache: l1")
	h.llc = new(assoc.Sets)
	h.llc.Decode(d, h.cfg.LLC.lines(), h.cfg.LLC.Ways, "cache: llc")
	h.stats.Decode(d)
}
