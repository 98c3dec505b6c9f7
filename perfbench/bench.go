package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"graphmem/internal/core"
	"graphmem/internal/gen"
)

// config fixes a workload's input sizes. benchConfig is what the
// command runs; the tests run testConfig.
type config struct {
	KronScale       int // log2 of the Kronecker graph's vertex count
	EdgeFactor      int
	StagedNodeBytes uint64
	CampaignScale   gen.Scale
}

var benchConfig = config{KronScale: 18, EdgeFactor: 16, StagedNodeBytes: 16 << 30, CampaignScale: gen.ScaleBench}

var testConfig = config{KronScale: 11, EdgeFactor: 8, StagedNodeBytes: 256 << 20, CampaignScale: gen.ScaleTest}

const (
	prIters       = 3       // PageRank iteration cap, as internal/exp caps it
	stagedShards  = 8       // ext-fullscale's shard count
	selPct        = 0.1     // staged-node's selective THP property prefix
	setupReps     = 3       // set-up repetitions; setup_s is their median
	minRounds     = 2       // rounds per run, however short --seconds is
	replaySamples = 1 << 19 // kernel accesses captured per cell for the replay timings
)

// campaignIDs are bench-campaign's experiments.
var campaignIDs = []string{"fig5", "pagecache", "fig10"}

// runner carries one benchmark run: its settings, the operation and
// failure counts, and (when traced) the span recorder.
type runner struct {
	cfg     config
	seed    uint64
	seconds float64
	traced  bool

	spans *recorder // all spans of a traced run
	rec   *recorder // spans of the current phase: spans, or nil while untraced

	setupTimes map[string][]time.Duration // set-up calls, by span name

	attempted, failed int
	failures          []string // the first few failure messages

	// corrupt, when set, damages every simulated result before it is
	// checked. Tests use it to prove a wrong result is counted.
	corrupt func(*core.RunResult)
}

func newRunner(cfg config, seed uint64, seconds float64, traced bool) *runner {
	r := &runner{cfg: cfg, seed: seed, seconds: seconds, traced: traced,
		setupTimes: make(map[string][]time.Duration)}
	if traced {
		r.spans = newRecorder()
		r.rec = r.spans
	}
	return r
}

// op is one timed call in flight. Calls are timed inline, between
// start and stop, rather than through callbacks: simlint's call graph
// matches function values by signature, and a callback shaped like a
// simulator hook would look reachable from the simulator.
type op struct {
	r          *runner
	name, cell string
	span       int
	t0         time.Time
}

// start opens a call's span under parent and starts its clock.
func (r *runner) start(name, cell string, parent int) op {
	return op{r: r, name: name, cell: cell, span: r.rec.begin(name, cell, parent), t0: time.Now()}
}

// stop closes the span and returns the call's duration.
func (o op) stop() time.Duration {
	d := time.Since(o.t0)
	o.r.rec.end(o.span)
	return d
}

// done stops an operation that counts: a non-nil err is a failure.
func (o op) done(err error) (time.Duration, bool) {
	d := o.stop()
	o.r.attempted++
	if err != nil {
		o.r.fail(fmt.Sprintf("%s %s: %v", o.cell, o.name, err))
	}
	return d, err == nil
}

// setupDone stops a set-up call; its duration joins setupTimes.
func (r *runner) setupDone(o op) {
	d, _ := o.done(nil)
	r.setupTimes[o.name] = append(r.setupTimes[o.name], d)
}

// setupLayers sets each set-up layer's figure: its calls' total time
// per set-up.
func (r *runner) setupLayers(layers map[string]float64) {
	for name, ds := range r.setupTimes {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		layers[name+"_s"] = sum.Seconds() / setupReps
	}
}

// check counts one output check.
func (r *runner) check(what string, ok bool) {
	r.attempted++
	if !ok {
		r.fail(what)
	}
}

func (r *runner) fail(msg string) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
}

// round is one pass over a workload's cells (or one campaign).
type round struct {
	Traced    bool          `json:"traced"`
	Wall      time.Duration `json:"wall_ns"`
	SimCycles uint64        `json:"sim_cycles"`
	Host      hostDelta     `json:"host"`
	Cells     []cellOut     `json:"cells,omitempty"`
	Campaign  *campaignOut  `json:"campaign,omitempty"`
	// Coverage is the smallest share of a cell's wall time (of the
	// round's, for a campaign) that layer spans cover. Traced only.
	Coverage float64 `json:"coverage,omitempty"`
}

// measure repeats one round until the run's seconds are spent: after
// minRounds, another round starts while it would end less than half a
// median round past them, so the rounds fill the seconds as closely as
// whole rounds can. Each round starts on a collected heap, so the heap
// a round leaves behind does not tax the next. A traced run alternates
// untraced and traced rounds; their medians give the tracing overhead.
func (r *runner) measure(one func() round) []round {
	var rounds []round
	var spent time.Duration
	for {
		runtime.GC()
		traced := r.traced && len(rounds)%2 == 1
		r.rec = nil
		if traced {
			r.rec = r.spans
		}
		h0 := readHost()
		rd := one()
		rd.Host = hostBetween(h0, readHost())
		rd.Traced = traced
		rounds = append(rounds, rd)
		spent += rd.Wall
		if len(rounds) >= minRounds &&
			(spent+medianDur(walls(rounds, false))/2).Seconds() >= r.seconds {
			return rounds
		}
	}
}

// walls lists the wall times of the traced or of the untraced rounds.
func walls(rounds []round, traced bool) []time.Duration {
	var w []time.Duration
	for _, rd := range rounds {
		if rd.Traced == traced {
			w = append(w, rd.Wall)
		}
	}
	return w
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// result is what one run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's raw material for the result.
type outcome struct {
	setup  []time.Duration
	rounds []round
	layers map[string]float64 // per-layer figures not derived from rounds
	notes  map[string]any     // extra fields for the run record
}

// report turns an outcome into the run's result: the end-to-end metrics
// from untraced rounds, or the per-layer metrics from traced ones.
func (r *runner) report(o outcome) result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue),
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Correct = false
	}
	if !r.traced {
		var rates []float64
		for _, rd := range o.rounds {
			if !rd.Traced {
				rates = append(rates, float64(rd.SimCycles)/1e6/rd.Wall.Seconds())
			}
		}
		vals := map[string]float64{
			"setup_s":           medianDur(o.setup).Seconds(),
			"wall_s":            medianDur(walls(o.rounds, false)).Seconds(),
			"sim_mcycles_per_s": median(rates),
			// Sys never shrinks, so its value now is the run's peak.
			"peak_sys_mb": float64(readHost().sysBytes) / 1e6,
			"ok_frac":     1 - float64(res.Failed)/float64(res.Attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
		return res
	}

	vals := make(map[string]float64)
	perRound := make(map[string][]float64)
	for _, rd := range o.rounds {
		if !rd.Traced {
			continue
		}
		for k, v := range roundLayers(rd) {
			perRound[k] = append(perRound[k], v)
		}
	}
	for k, vs := range perRound {
		vals[k] = median(vs)
	}
	for k, v := range o.layers {
		vals[k] = v
	}
	if base := medianDur(walls(o.rounds, false)); base > 0 {
		vals["trace.overhead_frac"] = medianDur(walls(o.rounds, true)).Seconds()/base.Seconds() - 1
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return res
}

// roundLayers derives one traced round's per-layer figures.
func roundLayers(rd round) map[string]float64 {
	v := map[string]float64{
		"go.gc_cpu_frac":          rd.Host.GCCPUFrac,
		"go.alloc_gb":             float64(rd.Host.AllocBytes) / 1e9,
		"go.peak_sys_mb":          float64(rd.Host.SysBytes) / 1e6,
		"trace.span_coverage_min": rd.Coverage,
	}
	if c := rd.Campaign; c != nil {
		v["exp.campaign_s"] = c.Campaign.Seconds()
		v["exp.cells"] = float64(c.Cells)
		if c.Cells > 0 {
			v["exp.s_per_cell"] = c.Campaign.Seconds() / float64(c.Cells)
		}
		v["stats.render_s"] = c.Render.Seconds()
		v["check.s"] = c.Check.Seconds()
		return v
	}
	for k, x := range cellLayers(rd.Cells) {
		v[k] = x
	}
	if rd.Wall > 0 {
		var acc uint64
		for _, c := range rd.Cells {
			acc += c.Counts.InitAccesses + c.Counts.KernelAccesses
		}
		v["sim.maccess_per_s"] = float64(acc) / 1e6 / rd.Wall.Seconds()
	}
	return v
}
