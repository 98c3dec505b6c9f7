package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"graphmem/internal/exp"
	"graphmem/internal/gen"
	"graphmem/internal/reorder"
)

// campaignDigests records, per scale, the campaign's distinct cell
// count and the SHA-256 of its rendered text, markdown and CSV.
//
//go:embed campaign_digest.txt
var campaignDigests string

type campaignWant struct {
	cells  int
	digest string
}

func wantCampaign(scale gen.Scale, ids []string) (campaignWant, error) {
	key := fmt.Sprintf("%d %s", scale, strings.Join(ids, ","))
	sc := bufio.NewScanner(strings.NewReader(campaignDigests))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || strings.HasPrefix(f[0], "#") || f[0]+" "+f[1] != key {
			continue
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return campaignWant{}, fmt.Errorf("campaign_digest.txt: %v", err)
		}
		return campaignWant{n, f[3]}, nil
	}
	return campaignWant{}, fmt.Errorf("campaign_digest.txt has no entry for scale/ids %q", key)
}

// campaignOut is one campaign round's timings and outputs.
type campaignOut struct {
	Campaign time.Duration `json:"campaign_ns"`
	Render   time.Duration `json:"render_ns"`
	Check    time.Duration `json:"check_ns"`
	Cells    int           `json:"cells"`
	Digest   string        `json:"digest"`
}

// campaignSetup generates and DBG-reorders every dataset variant the
// campaign's declare phase requests: the four datasets, unweighted and
// weighted (SSSP). The campaign generates its own copies inside
// RunCampaign; this times the same calls where they can be isolated.
func (r *runner) campaignSetup() {
	for _, ds := range gen.AllDatasets {
		for _, weighted := range []bool{false, true} {
			o := r.start("gen.generate", "setup", 0)
			g := gen.Generate(ds, r.cfg.CampaignScale, weighted)
			r.setupDone(o)
			o = r.start("reorder.dbg", "setup", 0)
			reorder.Apply(g, reorder.DBG, 1)
			r.setupDone(o)
		}
	}
}

// benchCampaign runs exp.RunCampaign over the configured experiments
// with no checkpoint store, renders every table as markdown and CSV,
// and checks the cell count and the digest of all rendered bytes.
func (r *runner) benchCampaign() outcome {
	o := outcome{layers: make(map[string]float64), notes: make(map[string]any)}
	want, err := wantCampaign(r.cfg.CampaignScale, campaignIDs)
	r.check(fmt.Sprint(err), err == nil)
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts on the same heap, as a fresh process would
		r.rec = r.spans
		t := time.Now()
		r.campaignSetup()
		o.setup = append(o.setup, time.Since(t))
	}
	r.setupLayers(o.layers)

	o.rounds = r.measure(func() round {
		var rd round
		var c campaignOut
		t := time.Now()
		top := r.rec.begin("round", "campaign", 0)
		var log cycleLog
		s := exp.NewSuite(r.cfg.CampaignScale, &log)
		var text, md, csv bytes.Buffer
		call := r.start("exp.campaign", "campaign", top)
		tables, err := exp.RunCampaign(s, campaignIDs, exp.CampaignOptions{Workers: maxProcs}, &text)
		c.Campaign, _ = call.done(err)

		call = r.start("stats.render", "campaign", top)
		for _, e := range exp.Registry {
			for _, t := range tables[e.ID] {
				md.WriteString(t.Markdown())
				csv.WriteString(t.CSV())
			}
		}
		c.Render, _ = call.done(nil)

		call = r.start("check", "campaign", top)
		c.Cells = s.CachedRunCount()
		h := sha256.New()
		h.Write(text.Bytes())
		h.Write(md.Bytes())
		h.Write(csv.Bytes())
		c.Digest = hex.EncodeToString(h.Sum(nil))
		r.check(fmt.Sprintf("campaign ran %d cells, want %d", c.Cells, want.cells), c.Cells == want.cells)
		r.check(fmt.Sprintf("campaign logged %d runs, ran %d", log.runs, c.Cells), log.runs == c.Cells)
		r.check("campaign output digest "+c.Digest+" differs from campaign_digest.txt", c.Digest == want.digest)
		c.Check = call.stop()
		r.rec.end(top)
		rd.Wall = time.Since(t)
		if r.rec != nil {
			rd.Coverage = r.rec.coverage(top)
		}
		rd.Campaign = &c
		rd.SimCycles = log.cycles
		return rd
	})
	return o
}

// cycleLog is the suite's progress log: one line per fresh run, ending
// in that run's simulated cycles. The suite serializes its writes.
type cycleLog struct {
	runs   int
	cycles uint64
}

func (l *cycleLog) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		if _, after, ok := strings.Cut(line, "cycles="); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(after), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("progress line %q: %v", line, err)
			}
			l.runs++
			l.cycles += n
		}
	}
	return len(p), nil
}
