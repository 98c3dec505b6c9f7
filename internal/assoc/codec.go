package assoc

import "graphmem/internal/ckpt"

// Checkpoint codec (DESIGN.md §5e). Only the tag array is serialized:
// recency order is the whole replacement state, and the geometry is the
// owner's configuration, which the owner decodes first and passes back
// in. Decode fails the Decoder, never panics, on an image whose array
// does not fit that geometry. It does not scan the tags: every index is
// derived from the geometry, so a wrong tag can mislead the simulation
// but never fault it, and the simcheck audit after a load
// (CheckInvariants) covers recency order.

// Encode writes the tag array.
func (s *Sets) Encode(e *ckpt.Encoder) {
	_ = s.setsMask // derived from the owner's config on decode
	_ = s.ways     // derived from the owner's config on decode
	ckpt.EncodeSlice(e, s.tags)
}

// Decode is Encode's inverse into a fresh receiver, for a structure of
// entries tags in ways-way sets. name labels decoder errors. On any
// decoder error the receiver must be discarded.
func (s *Sets) Decode(d *ckpt.Decoder, entries, ways int, name string) {
	s.tags = ckpt.DecodeSlice[uint64](d)
	if d.Err() != nil {
		return
	}
	sets, err := geometry(entries, ways)
	if err != nil {
		d.Failf("%s: %v", name, err)
		return
	}
	if sets != 0 {
		s.setsMask, s.ways = uint64(sets-1), ways
	}
	if len(s.tags) != entries {
		d.Failf("%s: %d tags for a %d-entry structure", name, len(s.tags), entries)
	}
}
