package main

import (
	"fmt"
	"time"

	"graphmem/internal/core"
	"graphmem/internal/memsys"
	"graphmem/internal/vm"
)

// sampler is a machine.Tracer that fills vas with the first accesses
// of a kernel and then stops it by panicking with errFull. Trace runs
// on the machine's access path, so it does not allocate.
type sampler struct {
	vas []uint64
	n   int
}

type samplerFull struct{}

var errFull any = samplerFull{}

func (s *sampler) Trace(va uint64, _ uint8) {
	s.vas[s.n] = va
	s.n++
	if s.n == len(s.vas) {
		panic(errFull)
	}
}

// captureKernel runs the spec's kernel on a fork of cp with a sampler
// attached and returns the first n addresses it accessed.
func captureKernel(cp *core.Checkpoint, n int) ([]uint64, error) {
	m, img, err := cp.Fork()
	if err != nil {
		return nil, err
	}
	s := &sampler{vas: make([]uint64, n)}
	m.SetTracer(s)
	func() {
		defer func() {
			if p := recover(); p != nil && p != errFull {
				panic(p)
			}
		}()
		img.Run(cp.Spec().Run)
	}()
	return s.vas[:s.n], nil
}

// replayTimes are host nanoseconds per call of one layer's entry point.
type replayTimes struct {
	translate, lookup, access float64
}

// replayKernel feeds a captured access stream, one layer at a time,
// through a fresh fork's address space, TLB hierarchy and cache
// hierarchy, and times each layer's calls. A TLB walk is followed by a
// fill, as the machine does, so later lookups see the same contents.
func replayKernel(cp *core.Checkpoint, vas []uint64) (replayTimes, error) {
	var t replayTimes
	if len(vas) == 0 {
		return t, fmt.Errorf("empty access sample")
	}
	m, _, err := cp.Fork()
	if err != nil {
		return t, err
	}
	sizes := make([]vm.PageSizeClass, len(vas))
	pas := make([]uint64, len(vas))
	unmapped := 0
	start := time.Now()
	for i, va := range vas {
		tr, _, ok := m.Space.Translate(va)
		if !ok {
			unmapped++
			continue
		}
		sizes[i] = tr.Size
		pas[i] = uint64(tr.Frame)*memsys.PageSize + va - tr.BaseVA
	}
	t.translate = float64(time.Since(start).Nanoseconds()) / float64(len(vas))
	if unmapped > 0 {
		return t, fmt.Errorf("%d of %d sampled kernel addresses are unmapped after init", unmapped, len(vas))
	}

	start = time.Now()
	for i, va := range vas {
		if m.TLB.Lookup(va, sizes[i]).Walked {
			m.TLB.Fill(va, sizes[i])
		}
	}
	t.lookup = float64(time.Since(start).Nanoseconds()) / float64(len(vas))

	start = time.Now()
	for _, pa := range pas {
		m.Cache.Access(pa)
	}
	t.access = float64(time.Since(start).Nanoseconds()) / float64(len(vas))
	return t, nil
}

// replayCell prepares spec's load phase, captures the start of its
// kernel stream and replays it.
func replayCell(spec core.RunSpec) (replayTimes, error) {
	cp, err := core.Prepare(spec)
	if err != nil {
		return replayTimes{}, err
	}
	vas, err := captureKernel(cp, replaySamples)
	if err != nil {
		return replayTimes{}, err
	}
	return replayKernel(cp, vas)
}

// replay measures one monolithic cell's replay timings into acc:
// the vm and TLB figures from 4KB cells, whose translations miss, and
// the cache figure from THP cells, where data accesses dominate.
func (r *runner) replay(c *cell, acc map[string][]float64) {
	call := r.start("replay", c.id, 0)
	t, err := replayCell(c.spec)
	if _, ok := call.done(err); !ok {
		return
	}
	switch c.class {
	case "4k":
		acc["vm.translate_ns"] = append(acc["vm.translate_ns"], t.translate)
		acc["tlb.lookup_ns"] = append(acc["tlb.lookup_ns"], t.lookup)
	case "thp":
		acc["cache.access_ns"] = append(acc["cache.access_ns"], t.access)
	}
}
