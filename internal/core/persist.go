package core

import (
	"fmt"
	"io"

	"graphmem/internal/analytics"
	"graphmem/internal/ckpt"
	"graphmem/internal/machine"
	"graphmem/internal/memsys"
	"graphmem/internal/workload"
)

// This file is the persistent half of the snapshot layer (DESIGN.md
// §5e): a Checkpoint's frozen machine can be written to a ckpt
// container and spliced back under a freshly staged spec in another
// process. The split follows the prepared struct: everything stage()
// derives is pure recomputation from the spec (graph, cuts, sizes,
// preprocessing cycles) and is NOT serialized — only the machine and
// its image, the two things that cost a load-phase replay, go to disk.
// Decode therefore cannot drift from prepare: the spec side is the same
// code path either way, and the machine side is cross-checked against
// it before the checkpoint is handed out.

// External frame-owner subtags written by prepared.encode, mirroring
// the owner types ForkPair knows how to clone.
const (
	ownerMemhog    = 1 // *workload.Memhog
	ownerPageCache = 2 // *workload.PageCache
)

func encodeExternalOwner(e *ckpt.Encoder, o memsys.Owner) {
	switch o := o.(type) {
	case *workload.Memhog:
		e.U8(ownerMemhog)
		o.Encode(e)
	case *workload.PageCache:
		e.U8(ownerPageCache)
		o.Encode(e)
	default:
		// The ForkPair rule, applied to disk: an owner without a codec
		// means the snapshot would be incomplete.
		e.Failf("core: frame owner %T has no checkpoint codec", o)
	}
}

func decodeExternalOwner(d *ckpt.Decoder, mem *memsys.Memory) memsys.Owner {
	switch tag := d.U8(); tag {
	case ownerMemhog:
		h := new(workload.Memhog)
		h.Decode(d, mem)
		return h
	case ownerPageCache:
		pc := new(workload.PageCache)
		pc.Decode(d, mem)
		return pc
	default:
		d.Failf("core: external owner subtag %d unknown", tag)
		return nil
	}
}

// encode writes the prepared run's machine half. The spec half — the
// graph, partition cuts, working-set and node sizes, preprocessing
// cycles — is stage()'s deterministic output and is recomputed from the
// spec on load rather than stored.
func (p *prepared) encode(e *ckpt.Encoder) {
	_ = p.spec      // the loader's key; re-supplied by the caller
	_ = p.g         // re-derived by stage (reorder is deterministic)
	_ = p.wss       // recomputed by stage
	_ = p.memBytes  // recomputed by stage
	_ = p.preCycles // recomputed by stage
	_ = p.cuts      // recomputed by stage (partitioning is deterministic)
	p.m.Encode(e, encodeExternalOwner)
	p.img.Encode(e)
}

// Save writes the checkpoint's frozen post-init machine state to w as a
// versioned, checksummed ckpt container under the given key (the
// campaign's staging identity — exp uses the cell key). It returns
// the container size in bytes. Saving requires a resident machine:
// with GRAPHMEM_NO_SNAPSHOT open there is nothing to persist.
func (cp *Checkpoint) Save(w io.Writer, key string) (int64, error) {
	if cp.pre == nil {
		return 0, fmt.Errorf("core: checkpoint holds no machine (GRAPHMEM_NO_SNAPSHOT is open); nothing to save")
	}
	return ckpt.Save(w, key, cp.pre.encode)
}

// LoadCheckpoint reconstructs a Checkpoint saved under key from r,
// splicing the serialized machine under a freshly staged spec. The spec
// must be the one the checkpoint was prepared from — the caller's store
// guarantees that by keying containers on the staging identity, and
// LoadCheckpoint cross-checks the machine's geometry and cost model
// against the spec so a mismatched pairing fails loudly instead of
// producing plausible wrong numbers. The loaded checkpoint's forks are
// byte-identical to the saving process's: Decode is exact inverse
// state transfer, and everything not serialized is recomputed through
// the same stage() path Prepare uses (MODEL.md §7).
func LoadCheckpoint(spec RunSpec, key string, r io.Reader) (*Checkpoint, error) {
	if SnapshotsDisabled() {
		return nil, fmt.Errorf("core: GRAPHMEM_NO_SNAPSHOT is open; checkpoints replay their load phase instead of loading")
	}
	d, err := ckpt.Load(r, key)
	if err != nil {
		return nil, err
	}
	p, err := stage(spec)
	if err != nil {
		return nil, err
	}
	m := new(machine.Machine)
	m.Decode(d, decodeExternalOwner)
	img := new(analytics.Image)
	img.Decode(d, m, p.g)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", key, err)
	}
	if m.Model != *p.spec.Cost {
		return nil, fmt.Errorf("core: checkpoint %s was saved under a different cost model", key)
	}
	if got, want := m.Mem.TotalPages()*memsys.PageSize, memsys.NodeBytes(p.memBytes); got != want {
		return nil, fmt.Errorf("core: checkpoint %s holds a %d-byte node, spec stages %d bytes", key, got, want)
	}
	if m.Space.SimPageTables != p.spec.SimulatePageTables {
		return nil, fmt.Errorf("core: checkpoint %s disagrees with the spec on page-table simulation", key)
	}
	if m.SupplyEvery() != p.spec.SampleSupplyEvery {
		return nil, fmt.Errorf("core: checkpoint %s samples supply every %d cycles, spec every %d", key, m.SupplyEvery(), p.spec.SampleSupplyEvery)
	}
	if !img.Initialized() {
		return nil, fmt.Errorf("core: checkpoint %s holds an uninitialized image", key)
	}
	if img.App != p.spec.App {
		return nil, fmt.Errorf("core: checkpoint %s holds a %s image, spec runs %s", key, img.App, p.spec.App)
	}
	// The hatches are per-process environment, not machine state:
	// normalize them exactly as prepare does for a fresh machine.
	applyAccessHatches(m)
	auditMachine(m)
	p.m = m
	p.img = img
	return &Checkpoint{spec: spec, pre: p}, nil
}
