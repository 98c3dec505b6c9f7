package exp

import (
	"os"
	"runtime"
	"testing"
	"time"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// TestFullscaleGeometryGate is the paper-geometry CI gate: the
// ext-fullscale campaign must stage its {Kron25, Twit} × {BFS, PR} ×
// {THP, 4KB} grid of ≥100 GB nodes, run every sharded kernel
// end-to-end inside a wall-clock budget, keep the whole process inside
// a host-memory budget, and keep the flagship node's simulator bytes
// per simulated GB within footprintBudgetPerSimGB.
//
// The wall-clock and host-memory budgets are deliberately loose
// multiples of the measured figures: they exist to catch regressions
// back to dense metadata — which would roughly double memsys bytes and
// blow the footprint budget — not to benchmark the host. Wall-clock assertions are meaningless under
// -race or on an arbitrarily loaded machine, so the test skips unless
// GRAPHMEM_FULLSCALE is set; ci.sh and bench.sh opt in.
//
// When GRAPHMEM_CKPT_DIR is also set, the campaign uses the persistent
// checkpoint store there, so the footprint report reloads the flagship
// node the campaign saved, and repeated gate runs (CI repetitions,
// bench.sh after ci.sh) reload the staged nodes from disk instead of
// re-faulting 100 GB+ of state per node — ci.sh step 13 points both
// repetitions at one store directory.
func TestFullscaleGeometryGate(t *testing.T) {
	if os.Getenv("GRAPHMEM_FULLSCALE") == "" {
		t.Skip("set GRAPHMEM_FULLSCALE=1 to run the paper-geometry gate (ci.sh)")
	}
	s := NewSuite(gen.ScaleFull, nil)
	s.CkptDir = os.Getenv("GRAPHMEM_CKPT_DIR")
	if node := s.fullscaleNodeBytes(); node < 100<<30 {
		t.Fatalf("full-scale node is %d bytes, want >= 100 GB of staged geometry", node)
	}

	// The declared grid must stay a real campaign: at least two
	// datasets, two kernels, and two policies at full geometry.
	apps := make(map[analytics.App]bool)
	dss := make(map[gen.Dataset]bool)
	pols := make(map[string]bool)
	cells := s.fullscaleCells()
	for _, c := range cells {
		apps[c.app] = true
		dss[c.ds] = true
		pols[c.policy.Name] = true
		if c.shards <= 1 {
			t.Errorf("cell %s is not sharded", c.label())
		}
	}
	if len(apps) < 2 || len(dss) < 2 || len(pols) < 2 {
		t.Fatalf("campaign grid is %d kernels x %d datasets x %d policies, want >= 2 of each",
			len(apps), len(dss), len(pols))
	}

	start := time.Now()
	tables := s.Fullscale()
	wall := time.Since(start)
	if len(tables) < 2 {
		t.Fatalf("Fullscale rendered %d tables, want kernel campaign + footprint", len(tables))
	}
	if rows := len(tables[0].Rows); rows != len(cells) {
		t.Errorf("campaign table has %d rows, want %d (one per cell)", rows, len(cells))
	}

	fp, ok := s.FullscaleFootprint()
	if !ok {
		t.Fatal("no resident machine to introspect (GRAPHMEM_NO_SNAPSHOT set?)")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// The parseable line bench.sh records (cmd/benchjson keys).
	t.Logf("footprint_fullscale total_bytes=%d bytes_per_sim_gb=%.0f wall_s=%.1f heap_sys_mb=%.0f",
		fp.TotalBytes(), fp.BytesPerSimGB(), wall.Seconds(), float64(ms.Sys)/(1<<20))

	// A cold run stages all eight 128 GB nodes (~9.5 min measured); a
	// warm run reloads them from GRAPHMEM_CKPT_DIR in a fraction of
	// that. The budget covers the cold case with headroom for a loaded
	// host — it catches order-of-magnitude staging regressions, not
	// few-percent drift.
	if wall > 15*time.Minute {
		t.Errorf("paper-geometry campaign took %v, budget 15m", wall)
	}
	if b := fp.BytesPerSimGB(); b > footprintBudgetPerSimGB {
		t.Errorf("flagship footprint %.0f bytes per simulated GB, budget %d", b, footprintBudgetPerSimGB)
	}
	// Fullscale renders its cells one at a time, and each cell's staged
	// 128 GB-geometry node dies with the cell: only one node and its
	// seven shard forks are resident at once. The figures on record,
	// ~9.3 GB cold and ~10.0 GB reloaded warm, were measured while the
	// suite still kept all eight staged nodes to the end. Dense frame
	// metadata would add ~0.26 GB per resident machine.
	if budget := uint64(12 << 30); ms.Sys > budget {
		t.Errorf("process took %d bytes from the OS, budget %d", ms.Sys, budget)
	}
}

// TestFlagshipFootprintBudget holds the bench-scale flagship node (the
// ext-fullscale flagship cell's load phase on its 2 GB node) to the
// paper-geometry gate's footprint budget on every tier-1 run, so a
// return to dense metadata fails without the env-gated full-scale gate.
func TestFlagshipFootprintBudget(t *testing.T) {
	if core.SnapshotsDisabled() {
		t.Skip("GRAPHMEM_NO_SNAPSHOT leaves no resident machine to introspect")
	}
	fp, ok := NewSuite(gen.ScaleBench, nil).FullscaleFootprint()
	if !ok {
		t.Fatal("no resident machine to introspect")
	}
	if b := fp.BytesPerSimGB(); b > footprintBudgetPerSimGB {
		t.Errorf("bench-scale flagship footprint %.0f bytes per simulated GB, budget %d", b, footprintBudgetPerSimGB)
	}
}
