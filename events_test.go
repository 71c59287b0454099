package anc

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anc/internal/gen"
	"anc/internal/graph"
)

// seenFlip is one vote flip as an independent listener on the index sees
// it, with the network time of the write that caused it.
type seenFlip struct {
	level int
	edge  graph.EdgeID
	pass  bool
	now   float64
}

// oracleEvents is the slow obvious reading of the change feed: the flips
// after since (the listener saw the flip with sequence number i at
// flips[i-start-1]), one event per endpoint in nodes.
func oracleEvents(g *graph.Graph, flips []seenFlip, start, since uint64, nodes []int) []ClusterEvent {
	in := map[int]bool{}
	for _, v := range nodes {
		in[v] = true
	}
	var out []ClusterEvent
	for _, f := range flips[min(max(since, start)-start, uint64(len(flips))):] {
		u, v := g.Endpoints(f.edge)
		for _, p := range [2][2]int{{int(u), int(v)}, {int(v), int(u)}} {
			if in[p[0]] {
				out = append(out, ClusterEvent{Node: p[0], Other: p[1], Level: f.level, Joined: f.pass, Time: f.now})
			}
		}
	}
	return out
}

// TestEventsOracle drives random streams under ANCO and ANCOR, serial and
// Parallel, one activation or one batch per call — and an ANCF network
// through a Snapshot — and requires every Events(since, S) to equal, in
// order, what an independent OnFlip listener on the index saw, filtered to
// S: one event per watched endpoint, timed at the write's Now (or, for an
// ANCOR interval flush that opens a write, the clock's time before it).
func TestEventsOracle(t *testing.T) {
	type run struct {
		method   Method
		parallel bool
		batch    int // activations per call; 1 is Activate
	}
	var runs []run
	for _, m := range []Method{ANCO, ANCOR} {
		for _, par := range []bool{false, true} {
			for _, batch := range []int{1, 24} {
				runs = append(runs, run{m, par, batch})
			}
		}
	}
	runs = append(runs, run{ANCF, false, 16})
	for i, r := range runs {
		t.Run(fmt.Sprintf("%v/parallel=%v/batch=%d", r.method, r.parallel, r.batch), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			g := gen.PlantedPartition([]int{16, 16, 16, 16}, 0.35, 0.04, rng).Graph
			cfg := DefaultConfig()
			cfg.Method, cfg.Parallel, cfg.ReinforceInterval = r.method, r.parallel, 2
			net, err := FromGraph(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			_, start, _ := net.Events(0, nil) // the ring records from here
			var flips []seenFlip
			net.inner.Index().EnableVoteTracking().OnFlip(func(l int, e graph.EdgeID, pass bool) {
				flips = append(flips, seenFlip{l, e, pass, net.Now()})
			})
			var cursors []uint64
			now := 0.0
			for call := 0; call < 900/r.batch; call++ {
				batch := make([]Activation, r.batch)
				for j := range batch {
					now += 0.03
					u, v := g.Endpoints(graph.EdgeID(rng.Intn(g.M())))
					batch[j] = Activation{U: int(u), V: int(v), T: now}
				}
				before, was := len(flips), net.Now()
				if r.batch == 1 {
					err = net.Activate(batch[0].U, batch[0].V, batch[0].T)
				} else {
					err = net.ActivateBatch(batch)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.method == ANCF && call == 30 {
					// The reconstruct reports exactly the pass states it
					// changed, in ascending (level, edge) order.
					pass := passBits(net)
					at := len(flips)
					if err := net.Snapshot(); err != nil {
						t.Fatal(err)
					}
					var want []seenFlip
					for i, now := range passBits(net) {
						if now != pass[i] {
							want = append(want, seenFlip{i/g.M() + 1, graph.EdgeID(i % g.M()), now, net.Now()})
						}
					}
					if len(want) == 0 || !reflect.DeepEqual(flips[at:], want) {
						t.Fatalf("the snapshot reported %d flips, its pass-state diff has %d", len(flips)-at, len(want))
					}
				}
				for _, f := range flips[before:] {
					// A flip is timed at the clock when it happened: the
					// write's Now, or under ANCOR the instant before it
					// when the write first flushes the interval that ended.
					if f.now != net.Now() && (r.method != ANCOR || f.now != was) {
						t.Fatalf("call %d: a flip at time %v, the write moved the clock %v → %v", call, f.now, was, net.Now())
					}
				}
				cursors = append(cursors, start+uint64(len(flips)))
			}
			_, seq, _ := net.Events(0, nil)
			if seq != start+uint64(len(flips)) {
				t.Fatalf("the feed's sequence is %d, the listener saw %d flips after %d", seq, len(flips), start)
			}
			if len(flips) < 50 {
				t.Fatalf("only %d flips: the stream exercises nothing", len(flips))
			}
			sets := [][]int{{0}, {3, 17, 40}, {5, 6, 7, 8, 20, 21, 60, 63}}
			var all []int
			for v := 0; v < g.N(); v++ {
				all = append(all, v)
			}
			sets = append(sets, all)
			for k := 0; k < 40; k++ {
				since := cursors[rng.Intn(len(cursors))]
				if k%10 == 0 {
					since = uint64(k / 10) // cursors at and below the ring's start
				}
				for _, nodes := range sets {
					got, s, missed := net.Events(since, nodes)
					want := oracleEvents(g, flips, start, since, nodes)
					if s != seq || missed != 0 || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("Events(%d, %d nodes): %d events (seq %d, %d missed), oracle %d (seq %d)",
							since, len(nodes), len(got), s, missed, len(want), seq)
					}
				}
			}
		})
	}
}

// passBits returns whether each edge passes the vote at each level, level
// by level in edge order.
func passBits(net *Network) []bool {
	ix := net.inner.Index()
	vt := ix.EnableVoteTracking()
	var out []bool
	for l := 1; l <= ix.Levels(); l++ {
		for e := 0; e < net.M(); e++ {
			out = append(out, vt.Votes(graph.EdgeID(e), l) >= ix.MinSupport())
		}
	}
	return out
}

// TestEventsReportANCFSnapshot: under ANCF the index changes only at a
// Snapshot, and the change feed reports what it changed. A 64-node planted
// graph takes 3,000 activations, then a Snapshot; the √n-level clustering
// changes, and Events has a change at that level for a node whose cluster
// changed.
func TestEventsReportANCFSnapshot(t *testing.T) {
	g := gen.PlantedPartition([]int{16, 16, 16, 16}, 0.35, 0.04, rand.New(rand.NewSource(1))).Graph
	cfg := DefaultConfig()
	cfg.Method = ANCF
	net, err := FromGraph(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	level := net.SqrtLevel()
	before := net.Clusters(level)
	_, seq, _ := net.Events(0, nil)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		u, v := g.Endpoints(graph.EdgeID(rng.Intn(g.M())))
		if err := net.Activate(int(u), int(v), float64(i)*0.01); err != nil {
			t.Fatal(err)
		}
	}
	if _, s, _ := net.Events(seq, nil); s != seq {
		t.Fatalf("ANCF ingest changed the feed before any Snapshot: seq %d → %d", seq, s)
	}
	if err := net.Snapshot(); err != nil {
		t.Fatal(err)
	}
	label := func(cl [][]int) []int {
		out := make([]int, g.N())
		for i := range out {
			out[i] = -1
		}
		for c, members := range cl {
			for _, v := range members {
				out[v] = c
			}
		}
		return out
	}
	a, b := label(before), label(net.Clusters(level))
	var moved []int
	for v := range a {
		for u := range a {
			if (a[u] == a[v] && a[u] >= 0) != (b[u] == b[v] && b[u] >= 0) {
				moved = append(moved, v)
				break
			}
		}
	}
	if len(moved) == 0 {
		t.Fatal("the snapshot left the √n-level clustering as it was: the scenario exercises nothing")
	}
	evs, _, missed := net.Events(seq, moved)
	if missed != 0 {
		t.Fatalf("%d events missed", missed)
	}
	for _, ev := range evs {
		if ev.Level == level {
			return
		}
	}
	t.Fatalf("%d nodes changed cluster at level %d, but the feed has %d events on them and none at that level", len(moved), level, len(evs))
}

// TestEventsSeqSurvivesRestore: a durable network restoring a snapshot in
// place keeps its flip ring, so the sequence never runs backwards, a
// cursor from before the restore still reads what it read, and flips after
// it continue the same sequence.
func TestEventsSeqSurvivesRestore(t *testing.T) {
	g := gen.PlantedPartition([]int{16, 16, 16, 16}, 0.35, 0.04, rand.New(rand.NewSource(5))).Graph
	newNet := func() *Network {
		net, err := FromGraph(g, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	rng := rand.New(rand.NewSource(6))
	now := 0.0
	stream := func(n int, activate func(u, v int, t float64) error) {
		for i := 0; i < n; i++ {
			now += 0.03
			u, v := g.Endpoints(graph.EdgeID(rng.Intn(g.M())))
			if err := activate(int(u), int(v), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := NewDurable(newNet(), t.TempDir(), DurableConfig{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var all []int
	for v := 0; v < g.N(); v++ {
		all = append(all, v)
	}
	stream(300, d.Activate)
	before, seq, _ := d.Events(0, all)
	if seq == 0 {
		t.Fatal("the stream flipped no vote")
	}

	other := newNet()
	defer other.Close()
	stream(300, other.Activate)
	var snap bytes.Buffer
	if err := other.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := d.Restore(snap.Bytes(), d.LoggedActivations()+10); err != nil {
		t.Fatal(err)
	}
	if got, s, missed := d.Events(0, all); s != seq || missed != 0 || !reflect.DeepEqual(got, before) {
		t.Fatalf("after Restore: %d events at seq %d, want the %d at seq %d", len(got), s, len(before), seq)
	}
	stream(300, d.Activate)
	if after, s, _ := d.Events(seq, all); s <= seq || len(after) == 0 {
		t.Fatalf("no flip after the restore continued the sequence: seq %d → %d", seq, s)
	}
}
