// Command perfbench is graphmem's benchmark. It runs one workload
// through the simulator's public Go API, times every call from outside
// the simulator, checks every output, and prints one JSON result line:
//
//	perfbench --workload fresh-kernels --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics and the spans are written to
// .bench_out/. README.md describes the workloads and metrics; run.sh
// builds and runs the command from the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*runner) outcome{
	"fresh-kernels":  (*runner).freshKernels,
	"staged-node":    (*runner).stagedNode,
	"bench-campaign": (*runner).benchCampaign,
}

// maxProcs matches the two CPUs the benchmark is sized for: it bounds
// the Go scheduler, the campaign's workers and the shard workers.
const maxProcs = 2

// traceDir receives the traced run's span file.
const traceDir = ".bench_out"

func main() {
	workload := flag.String("workload", "", "workload to run: fresh-kernels, staged-node or bench-campaign")
	seed := flag.Uint64("seed", 0, "input seed; 0 reproduces gen.Generate(Kron25, ScaleFull)'s generator seed")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *workload, *trace, *seconds)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)
	os.Setenv("GRAPHMEM_SHARD_WORKERS", fmt.Sprint(maxProcs))

	r := newRunner(benchConfig, *seed, *seconds, *trace == 1)
	o := run(r)
	res := r.report(o)
	rec := r.record(*workload, o)
	summarize(os.Stderr, *workload, res, r.failures)
	if r.traced {
		if err := writeTrace(traceDir, *workload, *seed, rec, o, r.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err == nil {
		fmt.Println(string(line))
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// record is the context every result carries: what ran, on which code
// and host, and what went wrong.
func (r *runner) record(workload string, o outcome) map[string]any {
	rec := map[string]any{
		"workload":      workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"traced":        r.traced,
		"config":        r.cfg,
		"git_revision":  gitRevision(),
		"source_sha256": sourceDigest("."),
		"cpu_model":     cpuModel(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"rounds":        len(o.rounds),
		"round_wall_s":  roundWalls(o.rounds),
		"attempted":     r.attempted,
		"failed":        r.failed,
		"failures":      r.failures,
	}
	rec["fail_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	for k, v := range o.notes {
		rec[k] = v
	}
	return rec
}

func roundWalls(rounds []round) []float64 {
	var s []float64
	for _, rd := range rounds {
		s = append(s, rd.Wall.Seconds())
	}
	return s
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and go.mod files under root, so a
// record names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	// The walk cannot fail: an unreadable entry is left out of the digest.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// summarize prints the metrics, one per line with its unit, for a
// reader of the log.
func summarize(w io.Writer, workload string, res result, failures []string) {
	fmt.Fprintf(w, "perfbench %s: correct=%v attempted=%d failed=%d fail_frac=%.4g frac\n",
		workload, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, f := range failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// writeTrace writes the traced run's record, rounds and spans as JSON.
func writeTrace(dir, workload string, seed uint64, rec map[string]any, o outcome, spans *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"record": rec,
		"rounds": o.rounds,
		"spans":  spans.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}
