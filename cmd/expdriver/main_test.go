package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"graphmem/internal/core"
	"graphmem/internal/exp"
)

// TestList prints every registry id with its capabilities.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(exp.Registry) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(exp.Registry), stdout.String())
	}
	for i, e := range exp.Registry {
		fields := strings.Fields(lines[i])
		if len(fields) == 0 || fields[0] != e.ID {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], e.ID)
			continue
		}
		caps := e.Caps
		if caps == "" {
			caps = "-"
		}
		if !strings.Contains(lines[i], " "+caps+" ") {
			t.Errorf("line %d = %q lacks caps %q", i, lines[i], caps)
		}
	}
}

// TestBadCommandLines exits with status 2, naming the offending flag or
// argument, before any simulation starts.
func TestBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "nope"}, "-scale"},
		{[]string{"-j", "-1"}, "-j"},
		{[]string{"-pr-iters", "0"}, "-pr-iters"},
		{[]string{"-scale", "test", "fig5"}, `"fig5"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit code = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr does not name %s:\n%s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout:\n%s", tc.args, stdout.String())
		}
	}
}

// TestCampaignWritesTables runs two experiments at test scale and
// checks the CSV and markdown files.
func TestCampaignWritesTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign")
	}
	dir := t.TempDir()
	csvDir := filepath.Join(dir, "csv")
	md := filepath.Join(dir, "out.md")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "test", "-exp", "table1,fig5", "-csv", csvDir, "-out", md}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, name := range []string{"table1_0.csv", "fig5_0.csv"} {
		if b, err := os.ReadFile(filepath.Join(csvDir, name)); err != nil || len(b) == 0 {
			t.Errorf("%s: %d bytes, err %v", name, len(b), err)
		}
	}
	b, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 5 runs five cells per dataset: the baseline, three
	// per-structure policies and THP always.
	if want := "scale=test, runs=20\n"; !strings.Contains(string(b), want) {
		t.Errorf("markdown header lacks %q:\n%.200s", want, b)
	}
	for _, h := range []string{"## table1 (Table 1)", "## fig5 (Fig. 5)"} {
		if !strings.Contains(string(b), h) {
			t.Errorf("markdown lacks %q", h)
		}
	}
	if !strings.Contains(stdout.String(), "### fig5") {
		t.Errorf("stdout lacks the fig5 tables:\n%.200s", stdout.String())
	}
}

// TestFootprintReport stages the test-scale flagship node and prints
// its simulator-footprint table and the parseable totals line.
func TestFootprintReport(t *testing.T) {
	if core.SnapshotsDisabled() {
		t.Skip("GRAPHMEM_NO_SNAPSHOT leaves no resident machine to introspect")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "test", "-footprint"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !regexp.MustCompile(`(?m)^subsystem +bytes *$`).MatchString(out) {
		t.Errorf("stdout lacks the subsystem/bytes table header:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^footprint_total_bytes=[1-9][0-9]* bytes_per_sim_gb=[1-9][0-9]*$`).MatchString(out) {
		t.Errorf("stdout lacks the footprint_total_bytes=… bytes_per_sim_gb=… line:\n%s", out)
	}
}

// TestFailureKeepsProfiles: a write failure after the campaign exits
// with status 1 and still writes the CPU and heap profiles.
func TestFailureKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "test", "-exp", "table1", "-csv", notDir, "-cpuprofile", cpu, "-memprofile", mem}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	for _, prof := range []string{cpu, mem} {
		if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written on the error exit (err %v)", filepath.Base(prof), err)
		}
	}
}
