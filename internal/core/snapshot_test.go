package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"anc/internal/gen"
	"anc/internal/graph"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := cliquePairGraph(t)
	o := options(ANCO)
	nw, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 1; i <= 200; i++ {
		nw.Activate(graph.EdgeID(rng.Intn(g.M())), float64(i)*0.1)
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph().N() != g.N() || got.Graph().M() != g.M() {
		t.Fatalf("graph size changed: %d/%d", got.Graph().N(), got.Graph().M())
	}
	if got.Clock().Now() != nw.Clock().Now() {
		t.Fatalf("time changed: %v vs %v", got.Clock().Now(), nw.Clock().Now())
	}
	// True similarity and activeness values must survive exactly.
	for e := 0; e < g.M(); e++ {
		a, b := nw.Similarity().At(graph.EdgeID(e)), got.Similarity().At(graph.EdgeID(e))
		if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
			t.Fatalf("S[%d]: %v vs %v", e, a, b)
		}
		aa := nw.Similarity().Activeness().At(graph.EdgeID(e))
		ba := got.Similarity().Activeness().At(graph.EdgeID(e))
		if math.Abs(aa-ba) > 1e-9*math.Max(1, math.Abs(aa)) {
			t.Fatalf("act[%d]: %v vs %v", e, aa, ba)
		}
	}
	// Same seeds + same weights => identical Voronoi partitions, hence
	// identical clusterings at every level.
	for l := 1; l <= nw.Index().Levels(); l++ {
		a := nw.Clusters(l)
		b := got.Clusters(l)
		if len(a.Clusters) != len(b.Clusters) {
			t.Fatalf("level %d: %d vs %d clusters", l, len(a.Clusters), len(b.Clusters))
		}
		for v := 0; v < g.N(); v++ {
			// Labels may be permuted; check co-membership on a sample pair.
			for u := 0; u < v; u++ {
				if (a.Labels[u] == a.Labels[v]) != (b.Labels[u] == b.Labels[v]) {
					t.Fatalf("level %d: co-membership of (%d,%d) changed", l, u, v)
				}
			}
		}
	}
	if msg := got.Index().Validate(); msg != "" {
		t.Fatal(msg)
	}
}

// TestLoadedNetworkKeepsWorking: activations continue seamlessly after a
// round trip, and a loaded copy is exact. On a 1,024-node planted
// partition, 5,000 activations go in, then Save and Load a copy, then 5,000
// more into the copy and its twin that never restarted, with the same
// Snapshot calls; the copy's index stays valid and the two save the same
// bytes. That holds for every method and chunking but one: per-op ANCOR
// still diverges, because the snapshot does not carry the time of the last
// interval flush (Load takes it to be Now), so the copy flushes at other
// boundaries than its twin. That case only checks the index.
func TestLoadedNetworkKeepsWorking(t *testing.T) {
	g := gen.PlantedPartition(repeat(32, 32), 0.2, 0.0015, rand.New(rand.NewSource(1))).Graph
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		for _, chunk := range []int{1, 24, 1000} {
			o := options(m)
			o.Lambda = 0.01
			nw, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			now, fed := 0.0, 0
			// feed sends n more activations of the stream (time +1 every
			// 64) to every net in chunks of chunk, then snapshots each.
			feed := func(n int, nets ...*Network) {
				batch := make([]Activation, 0, chunk)
				send := func() {
					for _, x := range nets {
						var err error
						if chunk == 1 {
							err = x.Activate(batch[0].Edge, batch[0].T)
						} else {
							err = x.ActivateBatch(batch)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					batch = batch[:0]
				}
				for i := 0; i < n; i++ {
					if fed%64 == 0 {
						now++
					}
					fed++
					batch = append(batch, Activation{Edge: graph.EdgeID(rng.Intn(g.M())), T: now})
					if len(batch) == chunk {
						send()
					}
				}
				if len(batch) > 0 {
					send()
				}
				for _, x := range nets {
					if err := x.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			feed(5000, nw)
			var buf bytes.Buffer
			if err := nw.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			feed(2500, got, nw)
			feed(2500, got, nw)
			if msg := got.Index().Validate(); msg != "" {
				t.Fatalf("%v, chunk %d: %s", m, chunk, msg)
			}
			if m != ANCOR || chunk > 1 {
				var a, b bytes.Buffer
				if err := nw.Save(&a); err != nil {
					t.Fatal(err)
				}
				if err := got.Save(&b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Errorf("%v, chunk %d: the loaded copy and its twin that never restarted saved different bytes after the same continuation", m, chunk)
				}
			}
			got.Close()
			nw.Close()
		}
	}
}

// repeat returns n copies of size: the group sizes of a planted partition.
func repeat(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

// TestLoadRejectsCorruption: every single-byte flip and every truncation
// of a valid snapshot must be detected by the CRC trailer (or the frame
// bookkeeping) — a torn or bit-flipped snapshot is never decoded into a
// silently wrong network.
func TestLoadRejectsCorruption(t *testing.T) {
	g := cliquePairGraph(t)
	nw, err := New(g, options(ANCO))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		nw.Activate(graph.EdgeID(i%g.M()), float64(i))
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	// Bit flips. Flipping inside the payload or trailer must error;
	// flipping the magic diverts to the legacy gob path, which must also
	// error (the stream is not valid gob), never panic.
	for off := 0; off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		if _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d accepted", off)
		}
	}
	// Truncations.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := Load(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestLoadRejectsOversizedHeader: a tiny forged snapshot announcing a huge
// node count must be rejected by the bounds checks, not allocated.
func TestLoadRejectsOversizedHeader(t *testing.T) {
	snap := snapshotV1{
		Magic: snapshotMagic,
		Opts:  DefaultOptions(),
		N:     1<<31 - 1,
		Edges: [][2]int32{{0, 1}},
		S:     []float64{1},
		Act:   []float64{1},
	}
	if err := snap.validate(); err == nil {
		t.Fatal("implausible node count accepted")
	}
	snap.N = -5
	if err := snap.validate(); err == nil {
		t.Fatal("negative node count accepted")
	}
}

// TestSaveFlushesPending: an ANCF network with buffered activations saves
// its post-snapshot state.
func TestSaveFlushesPending(t *testing.T) {
	g := cliquePairGraph(t)
	nw, err := New(g, options(ANCF))
	if err != nil {
		t.Fatal(err)
	}
	bridge := g.FindEdge(5, 6)
	for i := 1; i <= 10; i++ {
		nw.Activate(bridge, float64(i))
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded network reflects the snapshotted (reinforced) state.
	if math.Abs(got.Index().Weight(bridge)-nw.Index().Weight(bridge)) > 1e-9 {
		t.Fatalf("bridge weight %v vs %v", got.Index().Weight(bridge), nw.Index().Weight(bridge))
	}
	if len(got.pending) != 0 {
		t.Fatal("loaded network has pending work")
	}
}
