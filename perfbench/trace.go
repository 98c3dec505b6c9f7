package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the run began; Parent is 0 for a top-level span.
// Spans of one simulated cell share Cell.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name, cell string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// coverage is the share of span id's duration that its direct
// children cover. Children of one parent never overlap: the benchmark
// issues its calls one after another.
func (r *recorder) coverage(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[id-1]
	var covered int64
	for _, s := range r.spans {
		if s.Parent == id {
			covered += s.End - s.Start
		}
	}
	if p.End <= p.Start {
		return 0
	}
	return float64(covered) / float64(p.End-p.Start)
}

// hostSample is a reading of the Go runtime's own counters.
type hostSample struct {
	gcCPU, totalCPU float64 // cumulative CPU seconds
	allocBytes      uint64  // cumulative heap allocation
	sysBytes        uint64  // memory obtained from the OS (MemStats.Sys)
}

var hostMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/total:bytes",
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostMetricNames))
	for i, n := range hostMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return hostSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		sysBytes:   s[3].Value.Uint64(),
	}
}

// hostDelta is the runtime's activity between two samples.
type hostDelta struct {
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	AllocBytes uint64  `json:"alloc_bytes"`
	SysBytes   uint64  `json:"sys_bytes"` // at the later sample
}

func hostBetween(a, b hostSample) hostDelta {
	d := hostDelta{AllocBytes: b.allocBytes - a.allocBytes, SysBytes: b.sysBytes}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.GCCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}
