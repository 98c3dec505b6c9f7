package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"graphmem/internal/analytics"
	"graphmem/internal/ckpt"
	"graphmem/internal/core"
	"graphmem/internal/memsys"
)

// persistSpec is the persistence tests' configuration: the stressed
// environment (memhog pin runs and a resident page cache must ride
// through the external-owner codecs) with simulated page tables (the
// radix tree and PT-frame accounting must survive the trip).
func persistSpec(t *testing.T, pol core.Policy) core.RunSpec {
	t.Helper()
	spec := quickSpec(t, analytics.BFS, pol, stressedEnv())
	spec.SimulatePageTables = true
	return spec
}

// TestSaveLoadForkMatchesFresh is the persistence fidelity property
// test: for each standard configuration, a checkpoint written to a
// buffer and loaded back in must produce RunResults deeply equal to the
// resident checkpoint's — every cycle count, fault counter, array
// statistic, and kernel output bit — and Save must be byte-
// deterministic so the content-addressed store never flip-flops.
func TestSaveLoadForkMatchesFresh(t *testing.T) {
	for _, pol := range snapshotConfigs() {
		t.Run(pol.Name, func(t *testing.T) {
			spec := persistSpec(t, pol)
			key := "persist:" + pol.Name
			cp, err := core.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf, buf2 bytes.Buffer
			n, err := cp.Save(&buf, key)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
			}
			if _, err := cp.Save(&buf2, key); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("two Saves of one checkpoint produced different bytes")
			}
			ref, err := cp.Run()
			if err != nil {
				t.Fatal(err)
			}
			lcp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				got, err := lcp.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("loaded fork run %d diverged from fresh checkpoint:\n--- fresh ---\n%s--- loaded ---\n%s",
						i, formatResult(ref), formatResult(got))
				}
			}
		})
	}
}

// TestSaveLoadDefaultNodeMatchesFresh is the default-node-size
// regression test: stage sizes a node at 4×WSS, memsys.New rounds that
// down to whole max-order blocks, and LoadCheckpoint must compare the
// decoded node against the same rounding, or every checkpoint whose
// 4×WSS is not block-aligned is rejected and restaged.
func TestSaveLoadDefaultNodeMatchesFresh(t *testing.T) {
	spec := quickSpec(t, analytics.BFS, core.THPAlways(), core.FreshBoot())
	spec.Graph = widePropGraph(t)
	if wss := analytics.WSSBytes(spec.App, spec.Graph); 4*wss <= 64<<20 || memsys.NodeBytes(4*wss) == 4*wss {
		t.Fatalf("4×WSS = %d bytes: the test needs a default node above the 64 MB floor and not block-aligned", 4*wss)
	}
	ref, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.Save(&buf, "persist:default-node"); err != nil {
		t.Fatal(err)
	}
	lcp, err := core.LoadCheckpoint(spec, "persist:default-node", &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lcp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("loaded default-node run diverged from the fresh run:\n--- fresh ---\n%s--- loaded ---\n%s",
			formatResult(ref), formatResult(got))
	}
}

// TestSaveLoadFootprintMatches: the simulator-footprint report is a
// pure function of machine state, so a checkpoint and its reload report
// the same rows. Counting a slice's spare capacity (which a decoder
// never reproduces) would make the report depend on how the machine
// reached its state.
func TestSaveLoadFootprintMatches(t *testing.T) {
	for _, pol := range snapshotConfigs() {
		t.Run(pol.Name, func(t *testing.T) {
			spec := persistSpec(t, pol)
			key := "persist:footprint:" + pol.Name
			cp, err := core.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := cp.Save(&buf, key); err != nil {
				t.Fatal(err)
			}
			lcp, err := core.LoadCheckpoint(spec, key, &buf)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := cp.Footprint()
			if !ok {
				t.Skip("GRAPHMEM_NO_SNAPSHOT leaves no resident machine to introspect")
			}
			got, _ := lcp.Footprint()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("reloaded footprint differs from the staged one:\n--- staged ---\n%s--- reloaded ---\n%s",
					want.Table(), got.Table())
			}
		})
	}
}

// TestBatchFlagIsNotCheckpointState: the GRAPHMEM_NO_BATCH hatch is
// per-process configuration, not machine state. A checkpoint saved with
// the hatch open and one saved with it closed are the same bytes; loaded
// by a process with the opposite setting, the machine follows the
// loading process, and the run still equals core.Run.
func TestBatchFlagIsNotCheckpointState(t *testing.T) {
	spec := persistSpec(t, core.THPAlways())
	const key = "persist:batch-flag"
	ref, err := core.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	setBatch := func(t *testing.T, batch bool) {
		if batch {
			t.Setenv("GRAPHMEM_NO_BATCH", "")
		} else {
			t.Setenv("GRAPHMEM_NO_BATCH", "1")
		}
	}
	var images [][]byte
	for _, saveBatch := range []bool{false, true} {
		name := "saved-batching"
		if !saveBatch {
			name = "saved-scalar"
		}
		t.Run(name, func(t *testing.T) {
			setBatch(t, saveBatch)
			cp, err := core.Prepare(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := cp.Save(&buf, key); err != nil {
				t.Fatal(err)
			}
			images = append(images, buf.Bytes())

			setBatch(t, !saveBatch)
			lcp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			m, _, err := lcp.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if m.Batching() == saveBatch {
				t.Fatalf("loaded machine batches=%v, want %v: the loading process's GRAPHMEM_NO_BATCH must decide", m.Batching(), !saveBatch)
			}
			got, err := lcp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("loaded run diverged from core.Run:\n--- Run ---\n%s--- loaded ---\n%s",
					formatResult(ref), formatResult(got))
			}
		})
	}
	if len(images) == 2 && !bytes.Equal(images[0], images[1]) {
		t.Fatal("the batch hatch changed the saved checkpoint bytes")
	}
}

// savedImage builds one saved checkpoint container (and its spec/key)
// once for the corruption tests and the fuzzer.
var savedImage struct {
	once sync.Once
	spec core.RunSpec
	key  string
	data []byte
	err  error
}

func savedCheckpoint(t testing.TB) (core.RunSpec, string, []byte) {
	t.Helper()
	savedImage.once.Do(func() {
		savedImage.spec = quickSpec(t, analytics.BFS, core.THPAlways(), stressedEnv())
		savedImage.spec.SimulatePageTables = true
		savedImage.key = "persist:corruption"
		cp, err := core.Prepare(savedImage.spec)
		if err != nil {
			savedImage.err = err
			return
		}
		var buf bytes.Buffer
		if _, err := cp.Save(&buf, savedImage.key); err != nil {
			savedImage.err = err
			return
		}
		savedImage.data = buf.Bytes()
	})
	if savedImage.err != nil {
		t.Fatal(savedImage.err)
	}
	return savedImage.spec, savedImage.key, savedImage.data
}

// mustReject asserts LoadCheckpoint refuses a corrupted image: an
// error, no half-initialized checkpoint, and no panic (the deferred
// recover converts one into a test failure with context).
func mustReject(t *testing.T, spec core.RunSpec, key string, img []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("LoadCheckpoint panicked on %s: %v", what, r)
		}
	}()
	cp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(img))
	if err == nil {
		t.Fatalf("LoadCheckpoint accepted %s", what)
	}
	if cp != nil {
		t.Fatalf("LoadCheckpoint returned a checkpoint alongside the %s error", what)
	}
}

// TestLoadCheckpointRejectsCorruption truncates and bit-flips a real
// saved image at positions spread over the whole container — the
// header, key, payload, and trailer all see hits — and requires every
// variant to be rejected errors-only.
func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	spec, key, img := savedCheckpoint(t)
	stride := len(img)/257 + 1
	for off := 0; off < len(img); off += stride {
		mustReject(t, spec, key, img[:off], "a truncated image")
		flipped := append([]byte(nil), img...)
		flipped[off] ^= 1 << (off % 8)
		mustReject(t, spec, key, flipped, "a bit-flipped image")
	}
	mustReject(t, spec, key, nil, "an empty image")
	if _, err := core.LoadCheckpoint(spec, "persist:other", bytes.NewReader(img)); err == nil {
		t.Fatal("LoadCheckpoint accepted an image saved under a different key")
	}
}

// FuzzLoadCheckpoint drives arbitrary bytes through the whole decode
// stack. Raw container mutations mostly die at the CRC, so the fuzz
// input is treated as the PAYLOAD and wrapped in a valid container
// (correct magic, key, length, checksum) — every mutation then reaches
// the per-subsystem Decode validation, which must error, never panic,
// never hand back a half-initialized checkpoint.
func FuzzLoadCheckpoint(f *testing.F) {
	spec, key, img := savedCheckpoint(f)
	// Container layout (ckpt package doc): 17 fixed header bytes
	// (magic, version, endian, key length), the key, the payload, and a
	// 12-byte length+CRC trailer.
	hdr := 17 + len(key)
	payload := img[hdr : len(img)-12]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		if _, err := ckpt.Save(&buf, key, func(e *ckpt.Encoder) { e.Raw(data) }); err != nil {
			t.Fatal(err)
		}
		cp, err := core.LoadCheckpoint(spec, key, bytes.NewReader(buf.Bytes()))
		if err == nil {
			// Only the exact original payload decodes; anything the
			// fuzzer changed must have been caught by some validator.
			if !bytes.Equal(data, payload) {
				t.Fatalf("LoadCheckpoint accepted a mutated payload (%d bytes)", len(data))
			}
			if _, err := cp.Run(); err != nil {
				t.Fatal(err)
			}
		} else if cp != nil {
			t.Fatal("LoadCheckpoint returned a checkpoint alongside an error")
		}
	})
}
