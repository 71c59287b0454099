package anc_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"anc"
)

// TestLoadIndependentOfGOMAXPROCS: a load builds the index on every core,
// so the copies loaded at GOMAXPROCS 1 and 2 must be the same network —
// equal Save bytes at load and after 5,000 more identical activations.
func TestLoadIndependentOfGOMAXPROCS(t *testing.T) {
	src := buildSeededNetwork(t, anc.ANCO, 7)
	var snap bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	_, edges, _ := seededRingChords(7)
	var copies [2]*anc.Network
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		nw, err := anc.Load(bytes.NewReader(snap.Bytes()))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		copies[i] = nw
	}
	same := func(when string) {
		t.Helper()
		var a, b bytes.Buffer
		if err := copies[0].Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := copies[1].Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: the copies loaded at GOMAXPROCS 1 and 2 save different bytes", when)
		}
	}
	same("at load")
	for i := 0; i < 5000; i++ {
		e := edges[(i*7919)%len(edges)]
		for _, nw := range copies {
			if err := nw.Activate(e[0], e[1], 50+float64(i)/10); err != nil {
				t.Fatal(err)
			}
		}
	}
	same("after 5,000 activations")
}

// TestBuildsLeaveNoGoroutine: Load, Recover and Restore build the index
// on a transient pool when Parallel is off; none of its workers outlives
// the call, with no Close needed for that.
func TestBuildsLeaveNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fan out even on one core
	src := buildSeededNetwork(t, anc.ANCO, 3)
	var snap bytes.Buffer
	if err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}
	noneLeft := func(op string, before int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("%s: %d goroutines before, %d after", op, before, n)
		}
	}

	before := runtime.NumGoroutine()
	loaded, err := anc.Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	noneLeft("Load", before)

	dir := t.TempDir()
	cfg := anc.DurableConfig{Sync: anc.SyncNever}
	d, err := anc.NewDurable(loaded, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, edges, _ := seededRingChords(3)
	for i := 0; i < 100; i++ {
		e := edges[i%len(edges)]
		if err := d.Activate(e[0], e[1], 60+float64(i)/10); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before = runtime.NumGoroutine()
	d, err = anc.Recover(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	noneLeft("Recover", before)

	before = runtime.NumGoroutine()
	if err := d.Restore(snap.Bytes(), d.LoggedActivations()+10); err != nil {
		t.Fatal(err)
	}
	noneLeft("Restore", before)
}
