// Package cli holds the small parsing helpers shared by the command-line
// tools: resolving dataset / scale / app / policy / reorder names to
// library values, and rejecting malformed command lines, with uniform
// error messages.
//
// It sits outside the simulation path — parsing happens once per
// process, before any machine is built — so it carries none of the
// determinism obligations simlint enforces on simulator packages, only
// the convention that unknown names list the known ones in the error.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graphmem/internal/analytics"
	"graphmem/internal/core"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
)

// ParseScale resolves full|bench|test.
func ParseScale(name string) (gen.Scale, error) {
	switch name {
	case "full":
		return gen.ScaleFull, nil
	case "bench":
		return gen.ScaleBench, nil
	case "test":
		return gen.ScaleTest, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want full, bench, or test)", name)
}

// ParseApp resolves a workload name.
func ParseApp(name string) (analytics.App, error) {
	for _, a := range analytics.ExtendedApps {
		if string(a) == name {
			return a, nil
		}
	}
	return "", fmt.Errorf("unknown app %q (want bfs, sssp, pr, cc, or bc)", name)
}

// ParseDataset resolves a dataset name.
func ParseDataset(name string) (gen.Dataset, error) {
	for _, d := range gen.AllDatasets {
		if string(d) == name {
			return d, nil
		}
	}
	return "", fmt.Errorf("unknown dataset %q (want kr25, twit, web, or wiki)", name)
}

// ParseReorder resolves a reordering method name.
func ParseReorder(name string) (reorder.Method, error) {
	switch name {
	case "orig":
		return reorder.Identity, nil
	case "dbg":
		return reorder.DBG, nil
	case "sort":
		return reorder.FullSort, nil
	case "rand":
		return reorder.Random, nil
	}
	return "", fmt.Errorf("unknown reorder method %q (want orig, dbg, sort, or rand)", name)
}

// ParseOrder resolves an allocation order name.
func ParseOrder(name string) (analytics.AllocOrder, error) {
	switch name {
	case "natural":
		return analytics.Natural, nil
	case "prop-first":
		return analytics.PropFirst, nil
	}
	return 0, fmt.Errorf("unknown allocation order %q (want natural or prop-first)", name)
}

// ParsePolicy resolves a policy name; sel parameterizes selective,
// hugetlb and auto, and must lie in (0,1] for them.
func ParsePolicy(name string, sel float64, app analytics.App, g *graph.Graph) (core.Policy, error) {
	switch name {
	case "selective", "hugetlb", "auto":
		if !(sel > 0 && sel <= 1) {
			return core.Policy{}, fmt.Errorf("-sel %v out of (0,1] for policy %s", sel, name)
		}
	}
	switch name {
	case "4k":
		return core.Base4K(), nil
	case "thp":
		return core.THPAlways(), nil
	case "madvise-prop":
		return core.PerStructure("prop"), nil
	case "selective":
		return core.SelectiveTHP(sel), nil
	case "hugetlb":
		return core.HugetlbSelective(sel), nil
	case "auto":
		budget := uint64(sel * float64(analytics.WSSBytes(app, g)))
		if budget < 2<<20 {
			budget = 2 << 20
		}
		return core.AutoTHP(budget), nil
	case "ingens":
		return core.IngensLike(), nil
	case "hawkeye":
		return core.HawkEyeLike(), nil
	}
	return core.Policy{}, fmt.Errorf(
		"unknown policy %q (want 4k, thp, madvise-prop, selective, hugetlb, auto, ingens, or hawkeye)", name)
}

// CheckFraction returns an error unless v lies in [0,1], or in [0,1)
// when one is not allowed; flag names the option in the message.
func CheckFraction(flag string, v float64, oneAllowed bool) error {
	if v >= 0 && (v < 1 || oneAllowed && v == 1) {
		return nil
	}
	if oneAllowed {
		return fmt.Errorf("-%s %v out of [0,1]", flag, v)
	}
	return fmt.Errorf("-%s %v out of [0,1)", flag, v)
}

// CheckAtLeast returns an error unless v >= min; name is the option
// the message reports.
func CheckAtLeast(name string, v, min int) error {
	if v >= min {
		return nil
	}
	return fmt.Errorf("-%s %d below %d", name, v, min)
}

// NoArgs rejects positional arguments left over after fs was parsed.
// The flag package stops parsing at the first non-flag argument, so
// without this check "expdriver fig5 -scale bench" would ignore fig5
// and every flag after it. NoArgs prints the first stray argument and
// fs's usage, then exits with status 2.
func NoArgs(fs *flag.FlagSet) {
	if fs.NArg() == 0 {
		return
	}
	fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (this command takes only flags)\n",
		filepath.Base(fs.Name()), fs.Arg(0))
	fs.Usage()
	os.Exit(2)
}

// LoadGraph loads a GMG1 or edge-list file (by extension: .txt/.el =
// edge list, anything else = GMG1), or generates a dataset when path is
// empty.
func LoadGraph(path string, ds gen.Dataset, scale gen.Scale, weighted bool) (*graph.Graph, error) {
	if path == "" {
		return gen.Generate(ds, scale, weighted), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if n := len(path); n > 4 && (path[n-4:] == ".txt" || path[n-3:] == ".el") {
		return graph.ReadEdgeList(f)
	}
	return graph.Read(f)
}
