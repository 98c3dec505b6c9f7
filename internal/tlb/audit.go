package tlb

import "fmt"

// CheckInvariants validates the structural invariants of every array in
// the hierarchy and returns an error describing the first violation.
// The simcheck runtime sanitizer (check.Audit) calls it at policy
// boundaries; tests call it after operation sequences. Each array is
// checked by assoc.Sets.CheckInvariants: geometry, recency order without
// holes (empty ways form each set's suffix), no duplicate tags within a
// set, and each tag resident in the set its key maps to.
func (h *Hierarchy) CheckInvariants() error {
	names := [6]string{"l1d4k", "l1d2m", "stlb", "pwc-pde", "pwc-pdpte", "pwc-pml4e"}
	for i, s := range h.arrays() {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %v", names[i], err)
		}
	}
	return nil
}
