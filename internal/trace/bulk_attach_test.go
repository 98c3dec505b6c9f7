package trace_test

import (
	"reflect"
	"testing"

	"graphmem/internal/cache"
	"graphmem/internal/cost"
	"graphmem/internal/machine"
	"graphmem/internal/oskernel"
	"graphmem/internal/tlb"
	"graphmem/internal/trace"
)

// TestTracerAttachMidBulkRun is the regression test for a tracer
// attached while the bulk engine holds a warm translation: the tracer
// attaches between two AccessRun calls, the second resuming mid-page,
// and from that access on the trace must be byte-identical to the
// scalar engine's. AccessRun decides once per call whether a tracer
// forces per-access dispatch, so the second call traces every access.
func TestTracerAttachMidBulkRun(t *testing.T) {
	const half = 1 << 18 // accesses per call: the attach lands mid-page

	run := func(batch bool) ([]trace.Event, uint64) {
		m := machine.New(machine.Config{
			MemoryBytes: 64 << 20,
			TLB:         tlb.Haswell(),
			Cache:       cache.Haswell(),
			Cost:        cost.Default(),
			Kernel:      oskernel.DefaultConfig(),
		})
		m.SetBatch(batch)
		v := m.Space.Mmap("arr", 4<<20)
		m.RegisterArray(v)
		m.Touch(v.Base, v.Bytes)

		col := &collector{}
		m.AccessRun(v.Base, half, 4) // one long sequential stream, split
		m.SetTracer(col)
		m.AccessRun(v.Base+half*4, half, 4)
		return col.events, m.Cycles()
	}

	bulkEvents, bulkCycles := run(true)
	scalarEvents, scalarCycles := run(false)

	if bulkCycles != scalarCycles {
		t.Fatalf("cycles diverged: bulk %d, scalar %d", bulkCycles, scalarCycles)
	}
	if len(bulkEvents) != half {
		t.Fatalf("tracer saw %d accesses, want the second call's %d", len(bulkEvents), half)
	}
	if !reflect.DeepEqual(bulkEvents, scalarEvents) {
		t.Fatalf("traces diverged: bulk %d events, scalar %d events; first bulk %+v, first scalar %+v",
			len(bulkEvents), len(scalarEvents), bulkEvents[0], scalarEvents[0])
	}
}
