package anc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"anc/internal/wal"
)

// durableFrameSize is the on-disk WAL cost of one activation: 8 bytes of
// frame header plus the 16-byte record.
const durableFrameSize = 8 + activationRecordSize

// testStream returns a deterministic activation stream over the barbell's
// edges with strictly increasing timestamps.
func testStream(edges [][2]int, n int) [][3]float64 {
	rng := rand.New(rand.NewSource(42))
	out := make([][3]float64, n)
	for i := range out {
		e := edges[rng.Intn(len(edges))]
		out[i] = [3]float64{float64(e[0]), float64(e[1]), float64(i + 1)}
	}
	return out
}

// referenceNetwork feeds the first k stream records into a fresh network.
func referenceNetwork(t *testing.T, stream [][3]float64, k int) *Network {
	t.Helper()
	n, edges := barbell()
	ref, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range stream[:k] {
		if err := ref.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func canonClusters(cs [][]int) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		sort.Ints(c)
		parts[i] = fmt.Sprint(c)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// assertEquivalent asserts the recovered network reproduces the reference
// exactly: identical clusterings at the √n level, bit-identical per-edge
// similarity and byte-identical Save output — the state is a function of
// the activation stream alone, whatever was checkpointed or replayed.
func assertEquivalent(t *testing.T, got *DurableNetwork, ref *Network) {
	t.Helper()
	if got.N() != ref.N() || got.M() != ref.M() {
		t.Fatalf("shape: got %d/%d, ref %d/%d", got.N(), got.M(), ref.N(), ref.M())
	}
	if got.Now() != ref.Now() {
		t.Fatalf("time: got %v, ref %v", got.Now(), ref.Now())
	}
	if g, r := canonClusters(got.Clusters(got.SqrtLevel())), canonClusters(ref.Clusters(ref.SqrtLevel())); g != r {
		t.Fatalf("clusters differ:\n got %s\n ref %s", g, r)
	}
	_, edges := barbell()
	for _, e := range edges {
		sg, err1 := got.Similarity(e[0], e[1])
		sr, err2 := ref.Similarity(e[0], e[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("similarity(%v): %v %v", e, err1, err2)
		}
		if sg != sr {
			t.Fatalf("similarity(%v): got %v, ref %v", e, sg, sr)
		}
	}
	var a, b bytes.Buffer
	if err := got.Unwrap().Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save bytes differ from the reference's")
	}
}

func newDurableBarbell(t *testing.T, dir string, cfg DurableConfig) *DurableNetwork {
	t.Helper()
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDurable(net, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	_, edges := barbell()
	stream := testStream(edges, 30)
	d := newDurableBarbell(t, dir, DurableConfig{})
	for _, a := range stream {
		if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if d.LoggedActivations() != 30 || d.DurableActivations() != 30 {
		t.Fatalf("logged=%d durable=%d", d.LoggedActivations(), d.DurableActivations())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	assertEquivalent(t, rec, referenceNetwork(t, stream, 30))
	// The recovered network keeps ingesting and logging.
	if err := rec.Activate(4, 5, 100); err != nil {
		t.Fatal(err)
	}
	if rec.LoggedActivations() != 31 {
		t.Fatalf("logged=%d after post-recovery activate", rec.LoggedActivations())
	}
}

func TestDurableRejectsBadRecordsBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	d := newDurableBarbell(t, dir, DurableConfig{})
	defer d.Close()
	if err := d.Activate(0, 7, 1); err == nil {
		t.Fatal("missing edge accepted")
	}
	if err := d.Activate(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, 1, 4); err == nil {
		t.Fatal("backwards timestamp accepted")
	}
	if got := d.LoggedActivations(); got != 1 {
		t.Fatalf("rejected records reached the log: %d", got)
	}
}

func TestNewDurableRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	d := newDurableBarbell(t, dir, DurableConfig{})
	d.Close()
	n, edges := barbell()
	net, _ := NewNetwork(n, edges, testConfig())
	if _, err := NewDurable(net, dir, DurableConfig{}); err == nil {
		t.Fatal("NewDurable overwrote existing durable state")
	}
}

func TestRecoverNoState(t *testing.T) {
	if _, err := Recover(t.TempDir(), DurableConfig{}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("err = %v, want ErrNoDurableState", err)
	}
	if _, err := Recover(filepath.Join(t.TempDir(), "missing"), DurableConfig{}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("err = %v, want ErrNoDurableState", err)
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryEquivalenceAtEveryBoundary crashes — by truncating the log —
// at every record boundary and at bytes inside every frame, and asserts
// the recovered network is exactly the reference fed the surviving record
// prefix (satellite: table-driven recovery equivalence).
func TestRecoveryEquivalenceAtEveryBoundary(t *testing.T) {
	const records = 25
	dir := t.TempDir()
	_, edges := barbell()
	stream := testStream(edges, records)
	d := newDurableBarbell(t, dir, DurableConfig{})
	for _, a := range stream {
		if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, wal.SegmentName(0))
	type cut struct {
		bytes int64
		want  int // surviving record prefix
	}
	var cuts []cut
	for k := 0; k <= records; k++ {
		cuts = append(cuts, cut{int64(k) * durableFrameSize, k})
		if k < records {
			// Torn frames: cut inside the header and inside the payload.
			cuts = append(cuts, cut{int64(k)*durableFrameSize + 3, k})
			cuts = append(cuts, cut{int64(k)*durableFrameSize + 8 + 5, k})
		}
	}
	for _, c := range cuts {
		work := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(work, filepath.Base(seg)), c.bytes); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(work, DurableConfig{})
		if err != nil {
			t.Fatalf("cut@%d: %v", c.bytes, err)
		}
		if got := rec.LoggedActivations(); got != uint64(c.want) {
			t.Fatalf("cut@%d: recovered %d records, want %d", c.bytes, got, c.want)
		}
		assertEquivalent(t, rec, referenceNetwork(t, stream, c.want))
		rec.Close()
	}
}

// TestFaultInjectionRandomCrashPoints is the acceptance harness: a
// fault-injecting writer kills the WAL at ≥50 random byte offsets (most of
// them mid-frame, leaving a torn tail); recovery must reproduce a network
// identical — clusters and per-edge similarity — to a reference replayed
// over the durably persisted activation prefix, which must cover every
// acknowledged record.
func TestFaultInjectionRandomCrashPoints(t *testing.T) {
	const records = 60
	_, edges := barbell()
	stream := testStream(edges, records)
	total := int64(records) * durableFrameSize
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 55; trial++ {
		crash := rng.Int63n(total + 1)
		dir := t.TempDir()
		fault := wal.NewFault()
		fault.CrashAt(crash)
		// Small segments so crashes also land across rotation boundaries.
		cfg := DurableConfig{SegmentSize: 10 * durableFrameSize, openFile: fault.Open}
		d := newDurableBarbell(t, dir, cfg)
		acked := 0
		for _, a := range stream {
			if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
				break // the process "died" here
			}
			acked++
		}
		d.Close()
		rec, err := Recover(dir, DurableConfig{})
		if err != nil {
			t.Fatalf("crash@%d: %v", crash, err)
		}
		got := int(rec.LoggedActivations())
		if got < acked {
			t.Fatalf("crash@%d: %d acknowledged but only %d recovered", crash, acked, got)
		}
		if got > records {
			t.Fatalf("crash@%d: recovered %d > %d fed", crash, got, records)
		}
		assertEquivalent(t, rec, referenceNetwork(t, stream, got))
		rec.Close()
	}
}

// TestCheckpointTruncatesAndRecovers exercises automatic checkpointing:
// old WAL segments are truncated, at most two checkpoints are retained,
// and recovery (checkpoint + tail replay) matches the reference.
func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	const records = 43
	dir := t.TempDir()
	_, edges := barbell()
	stream := testStream(edges, records)
	cfg := DurableConfig{SegmentSize: 5 * durableFrameSize, CheckpointEvery: 10}
	d := newDurableBarbell(t, dir, cfg)
	for _, a := range stream {
		if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 2 {
		t.Fatalf("%d checkpoints retained, want 2", len(cps))
	}
	if cps[1].index != 40 {
		t.Fatalf("newest checkpoint at %d, want 40", cps[1].index)
	}
	// Segments wholly below the older retained checkpoint are gone.
	if _, err := os.Stat(filepath.Join(dir, wal.SegmentName(0))); !os.IsNotExist(err) {
		t.Fatal("stale WAL segment survived checkpoint truncation")
	}
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.LoggedActivations(); got != records {
		t.Fatalf("recovered %d records, want %d", got, records)
	}
	assertEquivalent(t, rec, referenceNetwork(t, stream, records))
}

// TestCorruptCheckpointFallsBack flips a byte in the newest checkpoint:
// its CRC must reject it and recovery must fall back to the previous
// checkpoint plus a longer WAL replay. With every checkpoint corrupted,
// recovery must fail rather than decode garbage.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	const records = 20
	dir := t.TempDir()
	_, edges := barbell()
	stream := testStream(edges, records)
	d := newDurableBarbell(t, dir, DurableConfig{})
	for i, a := range stream {
		if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
		if i == 11 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	cps, err := listCheckpoints(dir)
	if err != nil || len(cps) != 2 {
		t.Fatalf("checkpoints: %v %v", cps, err)
	}
	flip := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(cps[1].path) // corrupt the newest
	rec, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if got := rec.LoggedActivations(); got != records {
		t.Fatalf("recovered %d records via fallback, want %d", got, records)
	}
	assertEquivalent(t, rec, referenceNetwork(t, stream, records))
	rec.Close()
	flip(cps[0].path) // now both are corrupt
	if _, err := Recover(dir, DurableConfig{}); err == nil {
		t.Fatal("recovery decoded a corrupt checkpoint")
	}
}

// TestDurableConcurrentUse drives concurrent activators and queriers
// through the durable wrapper under -race.
func TestDurableConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	d := newDurableBarbell(t, dir, DurableConfig{Sync: SyncInterval, SyncEvery: 16})
	defer d.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 200; i++ {
			if err := d.Activate(4, 5, float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		d.Clusters(d.SqrtLevel())
		d.SmallestClusterOf(3)
		d.EvenClusters(2)
		_, _ = d.Similarity(4, 5)
		_ = d.Now()
		_ = d.M()
	}
	<-done
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.DurableActivations() != 200 {
		t.Fatalf("durable=%d", d.DurableActivations())
	}
}

// TestRecoverRepeatedlyWithoutCheckpoint: recovery must not consume the
// WAL tail it replays. A process that recovers, does a little work (or
// none) and dies before its next checkpoint leaves the directory exactly
// as recoverable as before — this guards against the writer discarding
// the not-yet-checkpointed tail as stale on reopen.
func TestRecoverRepeatedlyWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, edges := barbell()
	stream := testStream(edges, 20)
	d := newDurableBarbell(t, dir, DurableConfig{})
	for _, a := range stream {
		if err := d.Activate(int(a[0]), int(a[1]), a[2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil { // no checkpoint: only the index-0 one exists
		t.Fatal(err)
	}
	// Recover several times in a row; every round must see all 20 records.
	for round := 0; round < 3; round++ {
		r, err := Recover(dir, DurableConfig{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := r.LoggedActivations(); got != 20 {
			t.Fatalf("round %d: %d of 20 activations survive recovery", round, got)
		}
		assertEquivalent(t, r, referenceNetwork(t, stream, 20))
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A post-recovery append lands at the contiguous index and survives
	// the next (again checkpoint-free) recovery.
	r, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(4, 5, 21); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.LoggedActivations(); got != 21 {
		t.Fatalf("%d of 21 activations survive recovery", got)
	}
	if r2.Now() != 21 {
		t.Fatalf("Now = %v after replaying 21 records", r2.Now())
	}
}
