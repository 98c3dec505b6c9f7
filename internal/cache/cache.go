// Package cache models the data-side cache hierarchy with two
// set-associative levels (L1D and LLC) of 64-byte lines, physically
// indexed. The model exists to keep relative performance honest: the
// paper notes that degree-based reordering improves on-chip locality as
// well as TLB behaviour, and both effects must be present for the
// headline ratios to have the right shape.
package cache

import (
	"fmt"

	"graphmem/internal/assoc"
	"graphmem/internal/check"
)

// LineShift is log2 of the cache line size (64B lines).
const LineShift = 6

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Bytes int
	Ways  int
}

// Config describes the data cache hierarchy.
type Config struct {
	Name string
	L1D  LevelConfig
	LLC  LevelConfig
}

// Haswell returns a per-core view of the paper machine's data caches:
// 32KB 8-way L1D and a 2.5MB LLC slice. (We model a single-threaded run,
// so one core's LLC slice share is the capacity that matters; the paper
// pins the application to one socket.)
func Haswell() Config {
	return Config{
		Name: "haswell",
		L1D:  LevelConfig{Bytes: 32 << 10, Ways: 8},
		LLC:  LevelConfig{Bytes: 2560 << 10, Ways: 20},
	}
}

// Scaled divides capacities by div, preserving line size and clamping to
// one set.
func Scaled(c Config, div int) Config {
	sc := func(l LevelConfig) LevelConfig {
		b := l.Bytes / div
		if b < 64*l.Ways {
			b = 64 * l.Ways
		}
		// Round the set count down to a power of two (line size and
		// associativity are preserved).
		sets := b / (64 * l.Ways)
		for sets&(sets-1) != 0 {
			sets &= sets - 1
		}
		return LevelConfig{Bytes: sets * 64 * l.Ways, Ways: l.Ways}
	}
	return Config{Name: fmt.Sprintf("%s/%d", c.Name, div), L1D: sc(c.L1D), LLC: sc(c.LLC)}
}

// Stats counts hierarchy activity.
type Stats struct {
	Accesses uint64
	L1Misses uint64
	LLCMiss  uint64 // DRAM accesses
}

// Add returns the field-wise sum s + o (the sharded machine engine's
// per-shard merge).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses: s.Accesses + o.Accesses,
		L1Misses: s.L1Misses + o.L1Misses,
		LLCMiss:  s.LLCMiss + o.LLCMiss,
	}
}

// L1MissRate returns L1 misses / accesses.
func (s Stats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// LLCMissRate returns DRAM accesses / accesses.
func (s Stats) LLCMissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LLCMiss) / float64(s.Accesses)
}

// Hierarchy is a live two-level data cache.
type Hierarchy struct {
	cfg   Config
	l1    *assoc.Sets
	llc   *assoc.Sets
	stats Stats
}

// lines returns a level's capacity in lines.
func (c LevelConfig) lines() int { return c.Bytes >> LineShift }

// New builds a hierarchy.
func New(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		l1:  assoc.New(cfg.L1D.lines(), cfg.L1D.Ways),
		llc: assoc.New(cfg.LLC.lines(), cfg.LLC.Ways),
	}
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// ResetStats zeroes counters, keeping cache contents.
func (h *Hierarchy) ResetStats() { h.stats = Stats{} }

// Reset clears contents and counters.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.llc.Reset()
	h.stats = Stats{}
}

// AccessLevel tells the caller which level satisfied an access.
type AccessLevel uint8

const (
	HitL1 AccessLevel = iota
	HitLLC
	HitDRAM
)

// AccessRepeatL1 charges n data accesses to physical address pa that are
// known to hit the L1: pa's line is its L1 set's most-recently-used line,
// as it is right after an Access to it (hit or fill) with no other
// hierarchy call in between. n hits on an MRU line leave every set's
// recency order unchanged, so only the counters advance, exactly as n
// Access calls returning HitL1 would; the LLC is untouched, as it is on
// any L1 hit. The contract is verified under -tags simcheck, where a
// violation panics; normal builds trust the caller so the body stays
// under the inlining budget, and the engines' differential suites
// enforce the same guarantee end to end.
func (h *Hierarchy) AccessRepeatL1(pa, n uint64) {
	h.stats.Accesses += n
	if check.Enabled && !h.l1.IsMRU(pa>>LineShift) {
		panic(check.Failf("cache: bulk repeat hit on line %#x, which is not its L1 set's MRU", pa>>LineShift))
	}
}

// Access simulates a data access to physical address pa and reports
// which level served it. Fills are performed along the way (inclusive).
func (h *Hierarchy) Access(pa uint64) AccessLevel {
	h.stats.Accesses++
	line := pa >> LineShift
	if h.l1.Access(line) {
		return HitL1
	}
	h.stats.L1Misses++
	if h.llc.Access(line) {
		return HitLLC
	}
	h.stats.LLCMiss++
	return HitDRAM
}

// FootprintBytes reports the simulator-side bytes backing the cache
// hierarchy's tag arrays, for the stats.Footprint report.
func (h *Hierarchy) FootprintBytes() uint64 {
	return h.l1.FootprintBytes() + h.llc.FootprintBytes()
}

// CheckInvariants validates both levels' tag arrays (assoc.Sets
// CheckInvariants) and returns the first violation. The simcheck
// runtime sanitizer (check.Audit) calls it at policy boundaries.
func (h *Hierarchy) CheckInvariants() error {
	if err := h.l1.CheckInvariants(); err != nil {
		return fmt.Errorf("l1: %v", err)
	}
	if err := h.llc.CheckInvariants(); err != nil {
		return fmt.Errorf("llc: %v", err)
	}
	return nil
}
