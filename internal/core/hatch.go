package core

import (
	"os"

	"graphmem/internal/machine"
)

// Hatch names one of the byte-identity escape hatches: subsystems whose
// optimized path is observationally invisible by construction (batched
// access charging, checkpoint forking) each carry a GRAPHMEM_NO_<hatch>=1
// environment variable that forces the reference path instead. CI diffs
// campaign output with each hatch open against the optimized run byte
// for byte (scripts/ci.sh steps 9–11) — the hatches exist only to prove
// equivalence.
type Hatch string

const (
	// HatchBatch gates the batch engine behind machine.AccessRun and
	// machine.AccessGather (GRAPHMEM_NO_BATCH): open, every run and
	// gather degrades to per-access dispatch.
	HatchBatch Hatch = "BATCH"
	// HatchSnapshot gates the checkpoint/fork layer (GRAPHMEM_NO_SNAPSHOT):
	// open, every fork replays its load phase monolithically, and so
	// does every extra shard of a sharded run.
	HatchSnapshot Hatch = "SNAPSHOT"
)

// AllHatches lists the escape hatches, in subsystem order.
var AllHatches = []Hatch{HatchBatch, HatchSnapshot}

// HatchDisabled reports whether the hatch's environment variable
// (GRAPHMEM_NO_<hatch>) is set non-empty — the optimized path is then
// disabled in favour of the reference path. Read per call so one
// process can host both sides of an equivalence test.
func HatchDisabled(h Hatch) bool {
	return os.Getenv("GRAPHMEM_NO_"+string(h)) != ""
}

// applyAccessHatches routes the machine's batch engine through the
// batch hatch. machine.New enables it by default; the hatch check lives
// here so every env read shares one helper.
func applyAccessHatches(m *machine.Machine) {
	m.SetBatch(!HatchDisabled(HatchBatch))
}
