package cli

import (
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/oskernel"
	"graphmem/internal/reorder"
)

func TestParseScale(t *testing.T) {
	for name, want := range map[string]gen.Scale{
		"full": gen.ScaleFull, "bench": gen.ScaleBench, "test": gen.ScaleTest,
	} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestParseApp(t *testing.T) {
	for _, name := range []string{"bfs", "sssp", "pr", "cc", "bc"} {
		if _, err := ParseApp(name); err != nil {
			t.Fatalf("ParseApp(%q): %v", name, err)
		}
	}
	if _, err := ParseApp("dijkstra"); err == nil {
		t.Fatal("bad app accepted")
	}
}

func TestParseDataset(t *testing.T) {
	for _, name := range []string{"kr25", "twit", "web", "wiki"} {
		if _, err := ParseDataset(name); err != nil {
			t.Fatalf("ParseDataset(%q): %v", name, err)
		}
	}
	if _, err := ParseDataset("livejournal"); err == nil {
		t.Fatal("bad dataset accepted")
	}
}

func TestParseReorderAndOrder(t *testing.T) {
	if m, err := ParseReorder("dbg"); err != nil || m != reorder.DBG {
		t.Fatal("dbg parse failed")
	}
	if _, err := ParseReorder("zigzag"); err == nil {
		t.Fatal("bad method accepted")
	}
	if o, err := ParseOrder("prop-first"); err != nil || o != analytics.PropFirst {
		t.Fatal("prop-first parse failed")
	}
	if _, err := ParseOrder("random"); err == nil {
		t.Fatal("bad order accepted")
	}
}

func TestParsePolicyVariants(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	for name, mode := range map[string]oskernel.THPMode{
		"4k":           oskernel.ModeNever,
		"thp":          oskernel.ModeAlways,
		"madvise-prop": oskernel.ModeMadvise,
		"selective":    oskernel.ModeMadvise,
		"hugetlb":      oskernel.ModeMadvise,
		"auto":         oskernel.ModeMadvise,
		"ingens":       oskernel.ModeAlways,
		"hawkeye":      oskernel.ModeAlways,
	} {
		p, err := ParsePolicy(name, 0.3, analytics.BFS, g)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Mode != mode {
			t.Fatalf("ParsePolicy(%q).Mode = %v, want %v", name, p.Mode, mode)
		}
	}
	if _, err := ParsePolicy("yolo", 0.5, analytics.BFS, g); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestParsePolicySelRange(t *testing.T) {
	g := gen.Generate(gen.Wiki, gen.ScaleTest, false)
	for _, tc := range []struct {
		policy string
		sel    float64
		ok     bool
	}{
		{"selective", 0.5, true},
		{"selective", 1, true},
		{"selective", 3, false},
		{"selective", 0, false},
		{"selective", -0.2, false},
		{"selective", math.NaN(), false},
		{"hugetlb", 1, true},
		{"hugetlb", 1.5, false},
		{"hugetlb", 0, false},
		{"auto", 0.5, true},
		{"auto", 2, false},
		{"thp", 3, true}, // sel is ignored where it parameterizes nothing
	} {
		_, err := ParsePolicy(tc.policy, tc.sel, analytics.BFS, g)
		if (err == nil) != tc.ok {
			t.Errorf("ParsePolicy(%q, sel=%v) error = %v, want ok=%v", tc.policy, tc.sel, err, tc.ok)
		}
	}
}

func TestCheckFraction(t *testing.T) {
	for _, tc := range []struct {
		v          float64
		oneAllowed bool
		ok         bool
	}{
		{0, true, true},
		{0.5, true, true},
		{1, true, true},
		{1.5, true, false},
		{-0.5, true, false},
		{0, false, true},
		{0.99, false, true},
		{1, false, false},
		{2, false, false},
		{-0.1, false, false},
		{math.NaN(), true, false},
	} {
		err := CheckFraction("x", tc.v, tc.oneAllowed)
		if (err == nil) != tc.ok {
			t.Errorf("CheckFraction(%v, oneAllowed=%v) error = %v, want ok=%v", tc.v, tc.oneAllowed, err, tc.ok)
		}
	}
}

// TestCheckAtLeast covers the count-flag bound expdriver applies to -j,
// -shards (both >= 0) and -pr-iters (>= 1).
func TestCheckAtLeast(t *testing.T) {
	for _, tc := range []struct {
		v, min int
		ok     bool
	}{
		{0, 0, true},
		{4, 0, true},
		{-1, 0, false},
		{1, 1, true},
		{0, 1, false},
		{-3, 1, false},
	} {
		err := CheckAtLeast("x", tc.v, tc.min)
		if (err == nil) != tc.ok {
			t.Errorf("CheckAtLeast(%d, min=%d) error = %v, want ok=%v", tc.v, tc.min, err, tc.ok)
		}
	}
	if err := CheckAtLeast("pr-iters", 0, 1); err == nil || !strings.Contains(err.Error(), "-pr-iters") {
		t.Errorf("CheckAtLeast error %v does not name the flag", err)
	}
}

// TestNoArgs: a command line with only flags passes through NoArgs; a
// stray positional argument (the flag package stops parsing there, so
// "expdriver fig5 -scale bench" would drop -scale) ends the process
// with status 2, naming the argument and printing the usage. NoArgs
// exits, so that case runs in a child copy of the test binary.
func TestNoArgs(t *testing.T) {
	newFlags := func() *flag.FlagSet {
		fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
		fs.String("scale", "full", "dataset scale")
		return fs
	}
	if os.Getenv("CLI_TEST_NOARGS_CHILD") != "" {
		fs := newFlags()
		_ = fs.Parse([]string{"fig5", "-scale", "bench"})
		NoArgs(fs)
		os.Exit(0) // reached only if NoArgs let the stray argument through
	}

	fs := newFlags()
	if err := fs.Parse([]string{"-scale", "bench"}); err != nil {
		t.Fatal(err)
	}
	NoArgs(fs)

	cmd := exec.Command(os.Args[0], "-test.run=^TestNoArgs$")
	cmd.Env = append(os.Environ(), "CLI_TEST_NOARGS_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("stray argument: got %v, want exit status 2; output:\n%s", err, out)
	}
	for _, want := range []string{`unexpected argument "fig5"`, "-scale"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stray-argument output lacks %q:\n%s", want, out)
		}
	}
}

func TestLoadGraphGenerates(t *testing.T) {
	g, err := LoadGraph("", gen.Wiki, gen.ScaleTest, false)
	if err != nil || g.N == 0 {
		t.Fatalf("generate path failed: %v", err)
	}
}

func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g := gen.Generate(gen.Wiki, gen.ScaleTest, true)

	bin := filepath.Join(dir, "g.gmg")
	f, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadGraph(bin, "", 0, false)
	if err != nil || got.N != g.N {
		t.Fatalf("GMG1 load: %v", err)
	}

	txt := filepath.Join(dir, "g.txt")
	f2, err := os.Create(txt)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f2, g); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	got2, err := LoadGraph(txt, "", 0, false)
	if err != nil || got2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge-list load: %v", err)
	}

	if _, err := LoadGraph(filepath.Join(dir, "missing.gmg"), "", 0, false); err == nil {
		t.Fatal("missing file accepted")
	}
}
