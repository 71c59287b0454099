package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"anc/internal/cluster"
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
		//anclint:ignore floateq Load restores the anchored state and the clock bit for bit
		if a != b {
			t.Fatalf("S[%d]: %v vs %v", e, a, b)
		}
		aa := nw.Similarity().Activeness().At(graph.EdgeID(e))
		ba := got.Similarity().Activeness().At(graph.EdgeID(e))
		//anclint:ignore floateq Load restores the anchored state and the clock bit for bit
		if aa != ba {
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
// bytes, for every method and chunking.
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
	// Bit flips. Flipping inside the payload or trailer must error, and
	// so must flipping the file magic — never a panic.
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
	snap := snapshotV3{
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

// TestSaveIsARead: Save changes nothing. Two Saves write the same bytes
// and leave the time, the pending reinforcement, the flip sequence and
// every clustering as they were; and a network with pending work loads
// with that work still pending, on an index that holds the same weights —
// under ANCF the lagging ones on the pending edges included.
func TestSaveIsARead(t *testing.T) {
	g := cliquePairGraph(t)
	bridge := g.FindEdge(5, 6)
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		nw, err := New(g, options(m))
		if err != nil {
			t.Fatal(err)
		}
		_, _, seq, _ := nw.Flips(0)
		for i := 1; i <= 10; i++ {
			nw.Activate(bridge, float64(i))
		}
		nw.Activate(3, 11)
		if m != ANCO && len(nw.pending) == 0 {
			t.Fatalf("%v: nothing pending to save", m)
		}
		clusterings := func(nw *Network) (out []*cluster.Clustering) {
			for l := 1; l <= nw.Index().Levels(); l++ {
				out = append(out, nw.ClustersUncached(l), nw.EvenClustersUncached(l))
			}
			return out
		}
		now, pending, before := nw.Clock().Now(), slices.Clone(nw.pending), clusterings(nw)
		_, _, seq, _ = nw.Flips(seq)
		var first, second bytes.Buffer
		if err := nw.Save(&first); err != nil {
			t.Fatal(err)
		}
		if err := nw.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%v: two Saves wrote different bytes", m)
		}
		//anclint:ignore floateq Save must not touch the clock
		if nw.Clock().Now() != now || !slices.Equal(nw.pending, pending) {
			t.Fatalf("%v: Save moved the clock or the pending list", m)
		}
		if a, b, after, _ := nw.Flips(seq); len(a)+len(b) != 0 || after != seq {
			t.Fatalf("%v: Save flipped %d votes", m, len(a)+len(b))
		}
		if !reflect.DeepEqual(clusterings(nw), before) {
			t.Fatalf("%v: Save changed a clustering", m)
		}
		got, err := Load(&first)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.pending, nw.pending) {
			t.Fatalf("%v: loaded pending %v, want %v", m, got.pending, nw.pending)
		}
		for e := 0; e < g.M(); e++ {
			//anclint:ignore floateq the loaded index holds the saved index's weights bit for bit
			if a, b := got.Index().Weight(graph.EdgeID(e)), nw.Index().Weight(graph.EdgeID(e)); a != b {
				t.Fatalf("%v: index weight of edge %d: loaded %v, saved %v", m, e, a, b)
			}
		}
		if !reflect.DeepEqual(clusterings(got), before) {
			t.Fatalf("%v: the loaded copy clusters differently", m)
		}
	}
}

// TestValidateRejectsCorruptV3Fields: each field the version-3 format
// added is bounds-checked on its own, so a snapshot whose CRC happens to
// hold over a corrupt clock or pending list is still refused.
func TestValidateRejectsCorruptV3Fields(t *testing.T) {
	g := cliquePairGraph(t)
	nw, err := New(g, options(ANCF))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		nw.Activate(graph.EdgeID(i%5), float64(i))
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[len(fileMagic) : buf.Len()-trailerSize]
	decode := func() *snapshotV3 {
		var snap snapshotV3
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}
	if snap := decode(); len(snap.Pending) < 2 {
		t.Fatalf("only %d edges pending", len(snap.Pending))
	} else if err := snap.validate(); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(s *snapshotV3)
	}{
		{"anchor after now", func(s *snapshotV3) { s.Anchor = s.Now + 1 }},
		{"NaN anchor", func(s *snapshotV3) { s.Anchor = math.NaN() }},
		{"-Inf anchor", func(s *snapshotV3) { s.Anchor = math.Inf(-1) }},
		{"negative count", func(s *snapshotV3) { s.Count = -1 }},
		{"NaN last flush", func(s *snapshotV3) { s.LastFlush = math.NaN() }},
		{"-Inf last flush", func(s *snapshotV3) { s.LastFlush = math.Inf(-1) }},
		{"last flush after now", func(s *snapshotV3) { s.LastFlush = s.Now + 1 }},
		{"negative pending edge", func(s *snapshotV3) { s.Pending[0] = -1 }},
		{"pending edge out of range", func(s *snapshotV3) { s.Pending[0] = int32(len(s.Edges)) }},
		{"pending edge listed twice", func(s *snapshotV3) { s.Pending[1] = s.Pending[0] }},
		{"pending weights short", func(s *snapshotV3) { s.PendingWeights = s.PendingWeights[1:] }},
		{"pending weights long", func(s *snapshotV3) { s.PendingWeights = append(s.PendingWeights, 1) }},
		{"zero pending weight", func(s *snapshotV3) { s.PendingWeights[0] = 0 }},
		{"negative pending weight", func(s *snapshotV3) { s.PendingWeights[0] = -1 }},
		{"NaN pending weight", func(s *snapshotV3) { s.PendingWeights[0] = math.NaN() }},
		{"infinite pending weight", func(s *snapshotV3) { s.PendingWeights[0] = math.Inf(1) }},
	} {
		snap := decode()
		c.corrupt(snap)
		if err := snap.validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
