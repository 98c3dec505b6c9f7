// Command gengraph generates, inspects, and reorders the evaluation
// datasets as GMG1 binary files, so long experiment campaigns can reuse
// graphs instead of regenerating them.
//
// Usage:
//
//	gengraph gen -dataset kr25 -scale full -weighted -o kr25.gmg
//	gengraph info kr25.gmg
//	gengraph reorder -method dbg -o kr25-dbg.gmg kr25.gmg
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"graphmem/internal/cli"
	"graphmem/internal/gen"
	"graphmem/internal/graph"
	"graphmem/internal/reorder"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "reorder":
		err = cmdReorder(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gengraph: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gengraph gen -dataset <kr25|twit|web|wiki> [-scale full|bench|test] [-weighted] -o FILE
  gengraph info FILE
  gengraph reorder -method <dbg|sort|rand> -o OUT FILE`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "kr25", "dataset name")
	scale := fs.String("scale", "full", "scale: full, bench, test")
	weighted := fs.Bool("weighted", false, "generate edge weights (needed for SSSP)")
	out := fs.String("o", "", "output file")
	_ = fs.Parse(args)
	cli.NoArgs(fs)
	if *out == "" {
		return fmt.Errorf("gen: -o is required")
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		return err
	}
	ds, err := cli.ParseDataset(*dataset)
	if err != nil {
		return err
	}
	g := gen.Generate(ds, sc, *weighted)
	return writeGraph(*out, g)
}

func cmdInfo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("info: exactly one file expected")
	}
	g, err := readGraph(args[0])
	if err != nil {
		return err
	}
	in := g.InDegrees()
	sorted := append([]uint32(nil), in...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
	pct := func(p float64) uint32 { return sorted[int(p*float64(len(sorted)-1))] }
	fmt.Printf("vertices:   %d\n", g.N)
	fmt.Printf("edges:      %d\n", g.NumEdges())
	fmt.Printf("weighted:   %v\n", g.Weighted())
	fmt.Printf("avg degree: %.2f\n", g.AvgDegree())
	fmt.Printf("in-degree:  max=%d p50=%d p90=%d p99=%d\n",
		sorted[0], pct(0.5), pct(0.1), pct(0.01))
	fmt.Printf("footprint:  %.1fMB (CSR + property)\n", float64(g.FootprintBytes())/(1<<20))
	fmt.Printf("hot prefix: first 10%% of IDs receive %.1f%% of property accesses\n",
		100*reorder.HotPrefixCoverage(g, 0.1))
	return nil
}

func cmdReorder(args []string) error {
	fs := flag.NewFlagSet("reorder", flag.ExitOnError)
	method := fs.String("method", "dbg", "dbg, sort, or rand")
	out := fs.String("o", "", "output file")
	_ = fs.Parse(args)
	if *out == "" || fs.NArg() != 1 {
		return fmt.Errorf("reorder: -o OUT and one input file are required")
	}
	g, err := readGraph(fs.Arg(0))
	if err != nil {
		return err
	}
	var m reorder.Method
	switch *method {
	case "dbg":
		m = reorder.DBG
	case "sort":
		m = reorder.FullSort
	case "rand":
		m = reorder.Random
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	ng, cost := reorder.Apply(g, m, 1)
	fmt.Printf("reordered with %s: %d vertex + %d edge traversal elements\n",
		m, cost.VertexTraversals, cost.EdgeTraversals)
	fmt.Printf("hot-10%% coverage: %.1f%% -> %.1f%%\n",
		100*reorder.HotPrefixCoverage(g, 0.1), 100*reorder.HotPrefixCoverage(ng, 0.1))
	return writeGraph(*out, ng)
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
