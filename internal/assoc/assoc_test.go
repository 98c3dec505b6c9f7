package assoc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphmem/internal/assoc"
	"graphmem/internal/cache"
	"graphmem/internal/ckpt"
	"graphmem/internal/tlb"
)

// stampSets is the reference: the per-way-stamp LRU that the data cache
// levels and TLB arrays used before recency order, copied verbatim in
// behaviour. One clock is shared by all sets; every touch stamps the way
// with ++clock, and a fill evicts the first empty way, else the lowest
// stamp.
type stampSets struct {
	setsMask uint64
	ways     int
	tags     []uint64
	stamp    []uint32
	clock    uint32
	last     int // way touched by the most recent access (hit or fill)
}

func newStampSets(entries, ways int) *stampSets {
	if entries == 0 {
		return &stampSets{}
	}
	return &stampSets{
		setsMask: uint64(entries/ways - 1),
		ways:     ways,
		tags:     make([]uint64, entries),
		stamp:    make([]uint32, entries),
	}
}

// access is the cache level's probe-and-fill.
func (l *stampSets) access(line uint64) bool {
	if l.ways == 0 {
		return false
	}
	tag := line + 1
	base := int(line&l.setsMask) * l.ways
	hit := -1
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == tag {
			hit = i
		}
	}
	if hit >= 0 {
		l.clock++
		l.stamp[hit] = l.clock
		l.last = hit
		return true
	}
	victim, oldest := base, uint32(0xFFFFFFFF)
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == 0 {
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if l.stamp[i] < oldest {
			victim, oldest = i, l.stamp[i]
		}
	}
	l.clock++
	l.tags[victim] = tag
	l.stamp[victim] = l.clock
	l.last = victim
	return false
}

// accessRepeatL1 is the cache's bulk repeat hit on the last-touched way.
func (l *stampSets) accessRepeatL1(n uint64) {
	l.clock += uint32(n)
	l.stamp[l.last] = l.clock
}

// lookup is the TLB array's probe without fill.
func (s *stampSets) lookup(key uint64) bool {
	if s.ways == 0 {
		return false
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.clock++
			s.stamp[base+w] = s.clock
			return true
		}
	}
	return false
}

// repeatHit is the TLB array's bulk repeat hit.
func (s *stampSets) repeatHit(key, n uint64) bool {
	if s.ways == 0 {
		return false
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.clock += uint32(n)
			s.stamp[base+w] = s.clock
			return true
		}
	}
	return false
}

// insert is the TLB array's fill (a refresh when key is resident).
func (s *stampSets) insert(key uint64) {
	if s.ways == 0 {
		return
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	victim, oldest := base, s.stamp[base]
	for w := 0; w < s.ways; w++ {
		i := base + w
		if s.tags[i] == tag {
			s.clock++
			s.stamp[i] = s.clock
			return
		}
		if s.tags[i] == 0 {
			victim, oldest = i, 0
			continue
		}
		if s.stamp[i] < oldest {
			victim, oldest = i, s.stamp[i]
		}
	}
	s.clock++
	s.tags[victim] = tag
	s.stamp[victim] = s.clock
}

// invalidate is the TLB array's shootdown.
func (s *stampSets) invalidate(key uint64) {
	if s.ways == 0 {
		return
	}
	tag := key + 1
	base := int(key&s.setsMask) * s.ways
	for w := 0; w < s.ways; w++ {
		if s.tags[base+w] == tag {
			s.tags[base+w] = 0
			s.stamp[base+w] = 0
		}
	}
}

// order returns key's set as recency order: valid tags by descending
// stamp, then the empty ways.
func (s *stampSets) order(key uint64) []uint64 {
	base := int(key&s.setsMask) * s.ways
	type way struct {
		tag   uint64
		stamp uint32
	}
	var ws []way
	for w := 0; w < s.ways; w++ {
		if t := s.tags[base+w]; t != 0 {
			ws = append(ws, way{t, s.stamp[base+w]})
		}
	}
	slices.SortFunc(ws, func(a, b way) int { return int(b.stamp) - int(a.stamp) })
	out := make([]uint64, s.ways)
	for i, w := range ws {
		out[i] = w.tag
	}
	return out
}

// isMRU reports whether key holds its set's highest stamp.
func (s *stampSets) isMRU(key uint64) bool {
	o := s.order(key)
	return len(o) != 0 && o[0] == key+1
}

type geom struct {
	name          string
	entries, ways int
}

// geometries lists every structure the simulator builds from its stock
// configurations: both Haswell cache levels, every Haswell TLB array,
// and their Scaled variants.
func geometries() []geom {
	var gs []geom
	for _, div := range []int{1, 16, 1000000} {
		c := cache.Haswell()
		if div != 1 {
			c = cache.Scaled(c, div)
		}
		for _, l := range []struct {
			name string
			lc   cache.LevelConfig
		}{{"l1d", c.L1D}, {"llc", c.LLC}} {
			gs = append(gs, geom{fmt.Sprintf("cache/%d/%s", div, l.name), l.lc.Bytes >> cache.LineShift, l.lc.Ways})
		}
	}
	for _, div := range []int{1, 4, 16, 1024} {
		c := tlb.Haswell()
		if div != 1 {
			c = tlb.Scaled(c, div)
		}
		for _, a := range []struct {
			name string
			sc   tlb.SetConfig
		}{
			{"l1d4k", c.L1D4K}, {"l1d2m", c.L1D2M}, {"stlb", c.STLB},
			{"pwc-pde", c.PWCPDE}, {"pwc-pdpte", c.PWCPDPTE}, {"pwc-pml4e", c.PWCPML4E},
		} {
			gs = append(gs, geom{fmt.Sprintf("tlb/%d/%s", div, a.name), a.sc.Entries, a.sc.Ways})
		}
	}
	return append(gs, geom{"empty", 0, 0})
}

// TestMatchesStampLRU drives the recency-ordered Sets and the stamp
// reference with the same random stream of lookups, fills, invalidates
// and repeat hits on every stock geometry, and after every operation
// requires the same hit/miss result and the touched set in the same
// recency order (so the same resident lines and the same eviction
// order). Keys cluster on a few sets with about twice as many candidates
// as ways, so hits, refills and evictions all occur.
func TestMatchesStampLRU(t *testing.T) {
	for _, g := range geometries() {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.entries*31 + g.ways)))
			s, ref := assoc.New(g.entries, g.ways), newStampSets(g.entries, g.ways)
			sets := 1
			if g.ways != 0 {
				sets = g.entries / g.ways
			}
			hot := min(sets, 4)
			key := func() uint64 {
				set := uint64(rng.Intn(hot))
				if rng.Intn(8) == 0 {
					set = uint64(rng.Intn(sets))
				}
				return set + uint64(sets)*uint64(rng.Intn(2*g.ways+1))
			}
			last, haveLast := uint64(0), false
			for op := 0; op < 20000; op++ {
				k := key()
				var what string
				switch r := rng.Intn(10); {
				case r < 4:
					what = "access"
					if got, want := s.Access(k), ref.access(k); got != want {
						t.Fatalf("op %d: Access(%#x) = %v, stamp reference %v", op, k, got, want)
					}
					last, haveLast = k, g.ways != 0
				case r < 6:
					what = "lookup"
					got, want := s.Lookup(k), ref.lookup(k)
					if got != want {
						t.Fatalf("op %d: Lookup(%#x) = %v, stamp reference %v", op, k, got, want)
					}
					if got {
						last = k
					}
				case r < 8:
					what = "insert"
					s.Access(k)
					ref.insert(k)
					last, haveLast = k, g.ways != 0
				case r < 9:
					what = "invalidate"
					s.Invalidate(k)
					ref.invalidate(k)
					if k == last {
						haveLast = false
					}
				default:
					// A repeat hit is issued only on the key touched
					// last, as the bulk engines do; whether it is still
					// its set's MRU must agree with the stamps, and when
					// it is, n hits may change nothing.
					if !haveLast {
						continue
					}
					what, k = "repeat", last
					if got, want := s.IsMRU(k), ref.isMRU(k); got != want {
						t.Fatalf("op %d: IsMRU(%#x) = %v, stamp reference %v", op, k, got, want)
					}
					if s.IsMRU(k) {
						n := uint64(rng.Intn(100) + 1)
						if !ref.repeatHit(k, n) {
							t.Fatalf("op %d: MRU key %#x absent from the stamp reference", op, k)
						}
					}
				}
				if g.ways == 0 {
					continue
				}
				if got, want := s.SetOf(k), ref.order(k); !slices.Equal(got, want) {
					t.Fatalf("op %d (%s %#x): set = %#x, stamp reference recency order %#x", op, what, k, got, want)
				}
			}
			for set := 0; set < sets && g.ways != 0; set++ {
				if got, want := s.SetOf(uint64(set)), ref.order(uint64(set)); !slices.Equal(got, want) {
					t.Fatalf("final set %d = %#x, stamp reference %#x", set, got, want)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCacheRepeatL1MatchesStampLRU covers the cache's bulk path: after an
// access the touched line is its set's MRU, and the stamp reference's
// repeat hit (clock += n on the last-touched way) leaves the same
// recency order as doing nothing.
func TestCacheRepeatL1MatchesStampLRU(t *testing.T) {
	c := cache.Haswell().L1D
	entries := c.Bytes >> cache.LineShift
	s, ref := assoc.New(entries, c.Ways), newStampSets(entries, c.Ways)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		k := uint64(rng.Intn(4 * entries))
		if s.Access(k) != ref.access(k) {
			t.Fatalf("op %d: Access(%#x) disagrees with the stamp reference", op, k)
		}
		if !s.IsMRU(k) {
			t.Fatalf("op %d: key %#x is not MRU right after its access", op, k)
		}
		ref.accessRepeatL1(uint64(rng.Intn(16) + 1))
		if got, want := s.SetOf(k), ref.order(k); !slices.Equal(got, want) {
			t.Fatalf("op %d: set = %#x, stamp reference %#x", op, got, want)
		}
	}
}

// roundTrip encodes s into a container and decodes it back as an
// entries × ways structure, returning the result and the decode error.
func roundTrip(t *testing.T, s *assoc.Sets, entries, ways int) (*assoc.Sets, error) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, "assoc", s.Encode); err != nil {
		t.Fatal(err)
	}
	d, err := ckpt.Load(&buf, "assoc")
	if err != nil {
		t.Fatal(err)
	}
	out := new(assoc.Sets)
	out.Decode(d, entries, ways, "test")
	if err := d.Err(); err != nil {
		return nil, err
	}
	return out, d.Finish()
}

// TestCodecRoundTripAndRejects: a decoded structure resumes in the same
// recency order, and Decode fails — never panics — on a geometry that
// does not match the array.
func TestCodecRoundTripAndRejects(t *testing.T) {
	s := assoc.New(64, 4)
	for k := uint64(0); k < 200; k += 3 {
		s.Access(k)
	}
	got, err := roundTrip(t, s, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 16; k++ {
		if !slices.Equal(got.SetOf(k), s.SetOf(k)) {
			t.Fatalf("set %d decoded as %#x, want %#x", k, got.SetOf(k), s.SetOf(k))
		}
	}
	for _, g := range []struct{ entries, ways int }{{32, 4}, {64, 3}, {48, 4}, {0, 0}} {
		if _, err := roundTrip(t, s, g.entries, g.ways); err == nil {
			t.Errorf("decoding a 64×4 array as %d entries / %d ways succeeded", g.entries, g.ways)
		}
	}
	empty, err := roundTrip(t, assoc.New(0, 0), 0, 0)
	if err != nil || empty.Ways() != 0 || empty.Access(5) {
		t.Errorf("empty structure round trip: ways %d, err %v", empty.Ways(), err)
	}
}

// TestCheckInvariantsDetectsCorruption plants one inconsistency per
// case and requires the audit to name it.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(set []uint64)
	}{
		{"duplicate", func(set []uint64) { set[0], set[1] = 1, 1 }},
		{"wrong set", func(set []uint64) { set[0] = 2 }},
		{"hole", func(set []uint64) { set[1] = 1 }},
	} {
		s := assoc.New(32, 4)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("fresh structure: %v", err)
		}
		c.plant(s.SetOf(0))
		if err := s.CheckInvariants(); err == nil {
			t.Errorf("%s not detected", c.name)
		}
	}
}
