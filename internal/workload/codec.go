package workload

import (
	"sort"

	"graphmem/internal/ckpt"
	"graphmem/internal/memsys"
)

// Checkpoint codec (DESIGN.md §5e). The two interference sources that
// own frames in a staged machine are serializable: Memhog (static pin
// set) and PageCache (resident file pages).
//
// Both decoders validate the pin/resident sets against the node they
// are handed: frames in range, runs sorted+disjoint, counters
// consistent. The frames themselves were already decoded (with owner
// refs pointing at these owners' table slots) by memsys.

// Encode serializes the pin set. The mem binding is supplied by the
// caller on decode.
func (h *Memhog) Encode(e *ckpt.Encoder) {
	_ = h.mem // binding; the loaded hog is handed its decoded node
	ckpt.EncodeSlice(e, h.runs)
	e.Int(h.pages)
}

// Decode is Encode's inverse, into a fresh receiver bound to the
// caller's decoded node. On any decoder error the receiver must be
// discarded.
func (h *Memhog) Decode(d *ckpt.Decoder, mem *memsys.Memory) {
	h.mem = mem
	h.runs = ckpt.DecodeSlice[pinRun](d)
	h.pages = d.Int()
	if d.Err() != nil {
		return
	}
	// remove/insert binary-search over sorted, disjoint, non-touching
	// maximal runs; anything else corrupts the pin set silently.
	total := mem.TotalPages()
	var sum uint64
	prevEnd := uint64(0)
	for i, r := range h.runs {
		end := uint64(r.start) + uint64(r.n)
		if r.n == 0 || (i > 0 && uint64(r.start) <= prevEnd) || end > total {
			d.Failf("workload: memhog run [%d,+%d) empty, out of order, or out of range", r.start, r.n)
			return
		}
		prevEnd = end
		sum += uint64(r.n)
	}
	if sum != uint64(h.pages) || h.pages < 0 {
		d.Failf("workload: memhog page counter %d but runs hold %d pages", h.pages, sum)
	}
}

// Encode serializes the resident set in ascending frame order (the map
// itself has no stable order).
func (pc *PageCache) Encode(e *ckpt.Encoder) {
	_ = pc.mem // binding; the loaded cache is handed its decoded node
	frames := make([]memsys.Frame, 0, len(pc.frames))
	for f := range pc.frames {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(a, b int) bool { return frames[a] < frames[b] })
	ckpt.EncodeSlice(e, frames)
}

// Decode is Encode's inverse, into a fresh receiver bound to the
// caller's decoded node. On any decoder error the receiver must be
// discarded.
func (pc *PageCache) Decode(d *ckpt.Decoder, mem *memsys.Memory) {
	pc.mem = mem
	frames := ckpt.DecodeSlice[memsys.Frame](d)
	if d.Err() != nil {
		return
	}
	total := mem.TotalPages()
	pc.frames = make(map[memsys.Frame]struct{}, len(frames))
	for i, f := range frames {
		if uint64(f) >= total || (i > 0 && f <= frames[i-1]) {
			d.Failf("workload: page cache frame %d out of order or out of range", f)
			return
		}
		pc.frames[f] = struct{}{}
	}
}
