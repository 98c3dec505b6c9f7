package tlb

import (
	"reflect"
	"testing"
	"unsafe"

	"graphmem/internal/assoc"
	"graphmem/internal/vm"
)

// TestCheckInvariantsCleanAfterTraffic drives a realistic mixed-size
// access stream (lookups, fills, walks that populate the PWCs, and
// invalidations) and requires the structural audit to stay clean.
func TestCheckInvariantsCleanAfterTraffic(t *testing.T) {
	h := New(Haswell())
	for i := uint64(0); i < 20000; i++ {
		va := (i * 0x9E3779B97F4A7C15) &^ 0xFFF
		size := vm.Page4K
		if i%3 == 0 {
			size = vm.Page2M
			va &^= (1 << 21) - 1
		}
		r := h.Lookup(va, size)
		if r.Walked {
			h.WalkCost(va, size)
			h.Fill(va, size)
		}
		if i%97 == 0 {
			h.Invalidate(va, size)
		}
		if i%4096 == 0 {
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("audit failed mid-stream at op %d: %v", i, err)
			}
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("audit failed after traffic: %v", err)
	}
	h.Reset()
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("audit failed after Reset: %v", err)
	}
}

// The seeded-corruption tests plant one specific inconsistency each and
// require CheckInvariants to reject it.

// tags returns s's tag array (each set MRU first) for planting
// corruption. The field is unexported; reaching it through reflect keeps
// a test-only accessor out of assoc's API.
func tags(s *assoc.Sets) []uint64 {
	f := reflect.ValueOf(s).Elem().FieldByName("tags")
	return *(*[]uint64)(unsafe.Pointer(f.UnsafeAddr()))
}

func TestCheckInvariantsDetectsDuplicateTag(t *testing.T) {
	h := New(Haswell())
	tg := tags(h.stlb)
	tg[0], tg[1] = 1, 1 // key 0 planted in two ways of set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("duplicate tag within a set not detected")
	}
}

func TestCheckInvariantsDetectsWrongSet(t *testing.T) {
	h := New(Haswell())
	tags(h.l14k)[0] = 2 // key 1 belongs to set 1, planted in set 0
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("tag resident in the wrong set not detected")
	}
}

func TestCheckInvariantsDetectsEmptyWayBeforeValid(t *testing.T) {
	h := New(Haswell())
	tags(h.pwcPDE)[1] = 1 // way 0 of set 0 is empty: recency order has a hole
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("empty way ahead of a valid one not detected")
	}
}
