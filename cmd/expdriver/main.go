// Command expdriver reproduces the paper's evaluation: it runs every
// experiment (or a selected subset) and writes the tables as text to
// stdout and as markdown to a results file.
//
// Usage:
//
//	expdriver [-scale full|bench|test] [-exp fig1,fig10,...] [-j N] [-shards N]
//	          [-ckpt-dir DIR] [-out results.md] [-v]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -j runs the campaign's simulation cells on N workers (0 = all CPUs).
// Parallelism changes wall-clock time only: stdout, the markdown file,
// and the CSV tables are byte-identical for every worker count, because
// each cell is a pure function of its configuration and rendering is
// sequential in registry order (see DESIGN.md §5). Timing and progress
// go to stderr, keeping stdout comparable across runs.
//
// -shards sets how many worker goroutines drive each sharded cell's
// shards (0 = GOMAXPROCS), composing with -j: a campaign can run cells
// in parallel while each sharded cell also runs its shards in
// parallel. Like -j it is an execution knob routed through
// GRAPHMEM_SHARD_WORKERS, never part of any cell's configuration —
// which shard counts are *modeled* is fixed by the experiments
// (core.RunSpec.Shards) — so output stays byte-identical for every
// -shards value (DESIGN.md §5c).
//
// -ckpt-dir keeps the campaign's staged checkpoints in a persistent
// content-addressed store in that directory (DESIGN.md §5e): load
// phases staged by earlier invocations are reloaded from disk instead
// of replayed, and fresh stagings are saved for later ones. Like -j and
// -shards it is an execution knob — forks from a loaded machine are
// byte-identical to forks from a staged one, which CI's reload gate
// diffs — so output is unchanged whether the store is cold, warm, or
// absent.
//
// A full-scale run of all experiments takes tens of minutes on one core;
// -scale bench completes in a few minutes at reduced fidelity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"graphmem/internal/cli"
	"graphmem/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes tables to stdout and
// diagnostics to stderr, and returns the exit status — 2 for a bad
// command line, 1 for a failure after it. Returning instead of exiting
// lets the profile writers deferred here run on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "full", "dataset scale: full, bench, or test")
	expIDs := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	outPath := fs.String("out", "", "write markdown tables to this file")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	workers := fs.Int("j", 1, "parallel simulation workers (0 = all CPUs)")
	shardWorkers := fs.Int("shards", 0, "worker goroutines per sharded cell (0 = all CPUs); execution-only, output is identical for every value")
	ckptDir := fs.String("ckpt-dir", "", "persistent checkpoint store directory (created if missing); execution-only, output is identical with a cold, warm, or absent store")
	verbose := fs.Bool("v", false, "log per-worker progress for each simulation cell")
	listOnly := fs.Bool("list", false, "list experiments and exit")
	footprint := fs.Bool("footprint", false, "stage the ext-fullscale cell at the chosen scale, print the simulator footprint report, and exit")
	priters := fs.Int("pr-iters", 3, "PageRank iteration cap")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	exit := func(code int, err error) int {
		fmt.Fprintf(stderr, "expdriver: %v\n", err)
		return code
	}
	if fs.NArg() > 0 {
		// cli.NoArgs's check, returning instead of exiting.
		code := exit(2, fmt.Errorf("unexpected argument %q (this command takes only flags)", fs.Arg(0)))
		fs.Usage()
		return code
	}
	for _, c := range []struct {
		name   string
		v, min int
	}{{"j", *workers, 0}, {"shards", *shardWorkers, 0}, {"pr-iters", *priters, 1}} {
		if err := cli.CheckAtLeast(c.name, c.v, c.min); err != nil {
			return exit(2, err)
		}
	}
	sc, err := cli.ParseScale(*scale)
	if err != nil {
		return exit(2, fmt.Errorf("-scale: %v", err))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return exit(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return exit(1, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "expdriver: %v\n", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "expdriver: %v\n", err)
				return
			}
			runtime.GC() // settle live-heap numbers before the snapshot
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "expdriver: %v\n", err)
			}
		}()
	}

	if *listOnly {
		for _, e := range exp.Registry {
			caps := e.Caps
			if caps == "" {
				caps = "-"
			}
			fmt.Fprintf(stdout, "%-14s %-13s %-40s %s\n", e.ID, e.Paper, caps, e.Desc)
		}
		return 0
	}

	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	if *shardWorkers > 0 {
		// core.shardWorkers reads this per run; setting it here keeps
		// the knob out of every RunSpec, which is what makes output
		// independent of it.
		os.Setenv("GRAPHMEM_SHARD_WORKERS", strconv.Itoa(*shardWorkers))
	}

	var log io.Writer
	opt := exp.CampaignOptions{Workers: *workers}
	if *verbose {
		log = stderr
		opt.Progress = func(worker, done, total int, cell string) {
			fmt.Fprintf(stderr, "[w%d] %d/%d %s\n", worker, done, total, cell)
		}
	}
	s := exp.NewSuite(sc, log)
	s.PRMaxIters = *priters
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return exit(1, err)
		}
		s.CkptDir = *ckptDir
	}

	if *footprint {
		fp, ok := s.FullscaleFootprint()
		if !ok {
			return exit(1, fmt.Errorf("no resident machine to introspect (GRAPHMEM_NO_SNAPSHOT set?)"))
		}
		fmt.Fprint(stdout, fp.Table().String())
		fmt.Fprintf(stdout, "\nfootprint_total_bytes=%d bytes_per_sim_gb=%.0f\n",
			fp.TotalBytes(), fp.BytesPerSimGB())
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(stderr, "host heap: %.2f MiB in use, %.2f MiB from OS\n",
			float64(ms.HeapInuse)/(1<<20), float64(ms.Sys)/(1<<20))
		return 0
	}

	var ids []string
	if *expIDs != "" {
		ids = strings.Split(*expIDs, ",")
	}

	start := time.Now()
	results, err := exp.RunCampaign(s, ids, opt, stdout)
	if err != nil {
		return exit(1, err)
	}
	fmt.Fprintf(stderr, "\ncompleted %d experiments (%d distinct simulation runs, %d workers) in %s\n",
		len(results), s.CachedRunCount(), *workers, time.Since(start).Round(time.Second))

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return exit(1, err)
		}
		for _, e := range exp.Registry {
			tables, ok := results[e.ID]
			if !ok {
				continue
			}
			for i, t := range tables {
				name := fmt.Sprintf("%s/%s_%d.csv", *csvDir, e.ID, i)
				if err := os.WriteFile(name, []byte(t.CSV()), 0o644); err != nil {
					return exit(1, fmt.Errorf("writing %s: %v", name, err))
				}
			}
		}
		fmt.Fprintf(stderr, "CSV tables written to %s/\n", *csvDir)
	}

	if *outPath != "" {
		var b strings.Builder
		fmt.Fprintf(&b, "# graphmem experiment results\n\nscale=%s, runs=%d\n\n",
			*scale, s.CachedRunCount())
		for _, e := range exp.Registry {
			tables, ok := results[e.ID]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "## %s (%s): %s\n\n", e.ID, e.Paper, e.Desc)
			for _, t := range tables {
				b.WriteString(t.Markdown())
				b.WriteString("\n")
			}
		}
		if err := os.WriteFile(*outPath, []byte(b.String()), 0o644); err != nil {
			return exit(1, fmt.Errorf("writing %s: %v", *outPath, err))
		}
		fmt.Fprintf(stderr, "markdown written to %s\n", *outPath)
	}
	return 0
}
