// Package assoc is the set-associative tag array behind both the data
// cache levels (internal/cache) and the TLB and paging-structure caches
// (internal/tlb). Replacement is exact LRU inside each set, kept as
// recency order rather than timestamps: each set's slice of the tag
// array lists its resident tags most-recently-used first, and its empty
// ways (tag 0) form the set's suffix. So:
//
//   - a hit moves the tag to slot 0 (a hit on slot 0 changes nothing);
//   - a fill shifts the set down one slot and writes slot 0, which drops
//     the LRU way when the set is full and consumes an empty way when
//     one is free;
//   - an invalidate closes the gap and appends an empty way.
//
// Membership and eviction order are those of per-way stamps from a
// monotonic clock, without the clock: there is nothing to wrap.
package assoc

import (
	"fmt"

	"graphmem/internal/check"
)

// Sets is one set-associative structure of sets × ways tags.
type Sets struct {
	setsMask uint64
	ways     int
	tags     []uint64 // sets × ways; each set MRU first, empty ways (0) last; tags are key+1
}

// geometry returns the set count of an entries × ways structure, or an
// error when the shape is not one New can build: entries must split
// into a power-of-two number of sets. Zero entries is a structure with
// no capacity, whose lookups all miss.
func geometry(entries, ways int) (int, error) {
	if entries == 0 {
		return 0, nil
	}
	if entries < 0 || ways <= 0 || entries%ways != 0 {
		return 0, fmt.Errorf("%d entries not divisible into %d ways", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return 0, fmt.Errorf("set count %d not a power of two", sets)
	}
	return sets, nil
}

// New builds an empty structure of entries tags in ways-way sets. It
// panics unless entries splits into a power-of-two number of sets.
func New(entries, ways int) *Sets {
	sets, err := geometry(entries, ways)
	if err != nil {
		panic(check.Failf("assoc: %v", err))
	}
	if sets == 0 {
		return &Sets{}
	}
	return &Sets{setsMask: uint64(sets - 1), ways: ways, tags: make([]uint64, entries)}
}

// Ways returns the associativity; zero means the structure holds
// nothing.
func (s *Sets) Ways() int { return s.ways }

// set returns key's set, MRU first.
func (s *Sets) set(key uint64) []uint64 {
	base := int(key&s.setsMask) * s.ways
	return s.tags[base : base+s.ways]
}

// Access probes for key and reports whether it was resident. Either way
// key ends as its set's MRU: a hit moves it to the front, a miss fills
// it there. One pass does both, shifting each way down as it is passed
// until the scan meets key, an empty way, or the end of the set (which
// drops the LRU tag).
func (s *Sets) Access(key uint64) bool {
	tag := key + 1
	set := s.set(key)
	if len(set) == 0 {
		return false
	}
	prev := set[0]
	if prev == tag {
		return true
	}
	set[0] = tag
	for w := 1; w < len(set); w++ {
		cur := set[w]
		set[w] = prev
		if cur == tag || cur == 0 {
			return cur == tag
		}
		prev = cur
	}
	return false
}

// Lookup probes for key without filling. A hit moves key to the front
// of its set; a miss changes nothing.
func (s *Sets) Lookup(key uint64) bool {
	tag := key + 1
	set := s.set(key)
	for w, t := range set {
		if t == tag {
			for ; w > 0; w-- {
				set[w] = set[w-1]
			}
			set[0] = tag
			return true
		}
		if t == 0 {
			return false
		}
	}
	return false
}

// IsMRU reports whether key is its set's most-recently-used tag: exactly
// when any number of further hits on key leaves the structure unchanged.
func (s *Sets) IsMRU(key uint64) bool {
	return s.ways != 0 && s.tags[int(key&s.setsMask)*s.ways] == key+1
}

// Invalidate removes key if it is resident, closing the gap it leaves.
func (s *Sets) Invalidate(key uint64) {
	tag := key + 1
	set := s.set(key)
	for w, t := range set {
		if t == tag {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = 0
			return
		}
		if t == 0 {
			return
		}
	}
}

// Reset empties every set.
func (s *Sets) Reset() { clear(s.tags) }

// FootprintBytes reports the simulator-side bytes backing the tag array.
func (s *Sets) FootprintBytes() uint64 { return uint64(len(s.tags)) * 8 }

// Clone returns an independent deep copy: same geometry, same resident
// tags in the same recency order.
func (s *Sets) Clone() *Sets {
	return &Sets{
		setsMask: s.setsMask,
		ways:     s.ways,
		tags:     append([]uint64(nil), s.tags...),
	}
}

// CheckInvariants validates the structure and returns the first
// violation: the tag array matches the geometry, and in every set the
// empty ways form the suffix (recency order has no holes), no tag
// appears twice, and each tag's key maps to the set holding it.
func (s *Sets) CheckInvariants() error {
	sets := 0
	if s.ways != 0 {
		sets = int(s.setsMask) + 1
	}
	if len(s.tags) != sets*s.ways {
		return fmt.Errorf("geometry mismatch: %d sets × %d ways but %d tags", sets, s.ways, len(s.tags))
	}
	for set := 0; set < sets; set++ {
		ways := s.tags[set*s.ways : (set+1)*s.ways]
		for w, tag := range ways {
			if tag == 0 {
				for w2 := w + 1; w2 < len(ways); w2++ {
					if ways[w2] != 0 {
						return fmt.Errorf("set %d: way %d is empty but way %d holds tag %#x", set, w, w2, ways[w2])
					}
				}
				break
			}
			if got := int((tag - 1) & s.setsMask); got != set {
				return fmt.Errorf("set %d way %d: tag %#x belongs to set %d", set, w, tag, got)
			}
			for w2 := w + 1; w2 < len(ways); w2++ {
				if ways[w2] == tag {
					return fmt.Errorf("set %d: duplicate tag %#x in ways %d and %d", set, tag, w, w2)
				}
			}
		}
	}
	return nil
}
