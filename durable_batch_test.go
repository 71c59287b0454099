package anc

import (
	"bytes"
	"fmt"
	"testing"

	"anc/internal/wal"
)

// batchStream groups a testStream into batches of the given size.
func batchStream(stream [][3]float64, size int) [][]Activation {
	var out [][]Activation
	for off := 0; off < len(stream); off += size {
		end := off + size
		if end > len(stream) {
			end = len(stream)
		}
		b := make([]Activation, 0, end-off)
		for _, a := range stream[off:end] {
			b = append(b, Activation{U: int(a[0]), V: int(a[1]), T: a[2]})
		}
		out = append(out, b)
	}
	return out
}

// TestDurableBatchGroupCommit: a batch is one WAL frame (one fsync under
// SyncAlways), and recovery from the batch-framed log reproduces the
// per-op reference exactly.
func TestDurableBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := newDurableBarbell(t, dir, DurableConfig{})
	_, edges := barbell()
	stream := testStream(edges, 120)
	batches := batchStream(stream, 30)
	for _, b := range batches {
		if err := d.ActivateBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Group commit: one frame per batch, not one per activation.
	if got, want := d.LoggedActivations(), uint64(len(batches)); got != want {
		t.Fatalf("logged %d WAL frames, want %d (one per batch)", got, want)
	}
	if d.DurableActivations() != uint64(len(batches)) {
		t.Fatalf("SyncAlways left %d of %d frames unsynced",
			uint64(len(batches))-d.DurableActivations(), len(batches))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// Batched ingest is bit-identical to per-op under ANCO, so recovery of
	// the batch-framed log must match the per-op reference exactly.
	assertEquivalent(t, rec, referenceNetwork(t, stream, len(stream)))
}

// TestDurableBatchRejectedAtomically: an invalid batch leaves both the WAL
// and the in-memory network untouched.
func TestDurableBatchRejectedAtomically(t *testing.T) {
	d := newDurableBarbell(t, t.TempDir(), DurableConfig{})
	if err := d.Activate(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	framesBefore := d.LoggedActivations()
	bad := [][]Activation{
		{{U: 0, V: 1, T: 6}, {U: 3, V: 9, T: 6}}, // no such edge
		{{U: 0, V: 1, T: 4}},                     // before current time
		{{U: 0, V: 1, T: 8}, {U: 0, V: 1, T: 7}}, // decreasing inside batch
		{{U: -1, V: 1, T: 9}},                    // negative node
		{{U: 0, V: 1 << 20, T: 9}},               // out-of-range node
	}
	for i, b := range bad {
		if err := d.ActivateBatch(b); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	if d.LoggedActivations() != framesBefore {
		t.Fatal("rejected batch reached the WAL")
	}
	if d.Now() != 5 {
		t.Fatalf("rejected batch moved time to %v", d.Now())
	}
	if err := d.ActivateBatch([]Activation{{U: 0, V: 1, T: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableBatchCheckpointing: CheckpointEvery counts activations, not
// frames, so batched ingest still checkpoints on schedule.
func TestDurableBatchCheckpointing(t *testing.T) {
	dir := t.TempDir()
	d := newDurableBarbell(t, dir, DurableConfig{CheckpointEvery: 50})
	_, edges := barbell()
	stream := testStream(edges, 200)
	for _, b := range batchStream(stream, 40) {
		if err := d.ActivateBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("expected retained checkpoints from batched ingest, got %d", len(cps))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	assertEquivalent(t, rec, referenceNetwork(t, stream, len(stream)))
}

// TestDurableFrameReplayParity: a frame's apply rule is a function of the
// frame alone, and live ingest obeys it. For every method, a mix of
// Activate, one-element and n-element ActivateBatch calls — several
// timestamps inside one ReinforceInterval, so ANCOR's flush points matter —
// must leave the live network, a Recovered one and a second network fed the
// same frames through ApplyFrame with byte-identical Save output. (A
// one-element batch once ran the batch pipeline live but replayed through
// Activate, and ANCOR diverged.)
func TestDurableFrameReplayParity(t *testing.T) {
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			cfg := testConfig()
			cfg.Method = m
			open := func(dir string) *DurableNetwork {
				n, edges := barbell()
				net, err := NewNetwork(n, edges, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d, err := NewDurable(net, dir, DurableConfig{})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			save := func(d *DurableNetwork) []byte {
				var buf bytes.Buffer
				if err := d.Unwrap().Save(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			dir := t.TempDir()
			live := open(dir)
			_, edges := barbell()
			stream := testStream(edges, 90)
			for i := range stream {
				stream[i][2] = 0.4 * float64(i+1) // 12 timestamps per ReinforceInterval (5)
			}
			acts := batchStream(stream, len(stream))[0]
			for i := 0; i < len(acts); {
				var err error
				switch i % 9 {
				case 0:
					err = live.Activate(acts[i].U, acts[i].V, acts[i].T)
					i++
				case 1, 2, 3:
					err = live.ActivateBatch(acts[i : i+1])
					i++
				default:
					err = live.ActivateBatch(acts[i : i+5])
					i += 5
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			applied := open(t.TempDir())
			defer applied.Close()
			if _, err := wal.Replay(dir, 0, func(index uint64, rec []byte) error {
				return applied.ApplyFrame(index, rec)
			}); err != nil {
				t.Fatal(err)
			}

			want := save(live)
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir, DurableConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if !bytes.Equal(save(rec), want) {
				t.Error("Recover diverged from the live network")
			}
			if !bytes.Equal(save(applied), want) {
				t.Error("ApplyFrame replica diverged from the live network")
			}
		})
	}
}
