package pyramid

import (
	"math/rand"
	"reflect"
	"testing"

	"anc/internal/graph"
)

// starHeavyGraph is a ring of hubs, each with `leaves` pendant leaves, a
// two-node tail behind every eighth leaf (so a hub's subtree nests) and a
// few leaf-leaf chords. A hub that is no seed parents nearly all of its
// leaves in every partition: orphaning it is the children-list worst case.
func starHeavyGraph(rng *rand.Rand, hubs, leaves int) (*graph.Graph, []graph.NodeID) {
	type pair struct{ u, v int }
	var edges []pair
	n := hubs
	hubIDs := make([]graph.NodeID, hubs)
	for h := 0; h < hubs; h++ {
		hubIDs[h] = graph.NodeID(h)
		edges = append(edges, pair{h, (h + 1) % hubs})
		for i := 0; i < leaves; i++ {
			leaf := n
			n++
			edges = append(edges, pair{h, leaf})
			if i%8 == 0 {
				edges = append(edges, pair{leaf, n}, pair{n, n + 1})
				n += 2
			}
		}
	}
	for i := 0; i < hubs*4; i++ {
		edges = append(edges, pair{hubs + rng.Intn(n-hubs), hubs + rng.Intn(n-hubs)})
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e.u != e.v {
			b.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v))
		}
	}
	return b.Build(), hubIDs
}

// plantedGraph is `comms` dense communities of `size` nodes joined by sparse
// random edges.
func plantedGraph(rng *rand.Rand, comms, size int) *graph.Graph {
	n := comms * size
	b := graph.NewBuilder(n)
	for c := 0; c < comms; c++ {
		for i := 1; i < size; i++ {
			b.AddEdge(graph.NodeID(c*size+rng.Intn(i)), graph.NodeID(c*size+i))
		}
		for i := 0; i < size*3; i++ {
			if u, v := c*size+rng.Intn(size), c*size+rng.Intn(size); u != v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	for i := 0; i < n/4; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Build()
}

// forestHarness drives a serial and a parallel index, and a reference index
// repaired slot by slot, through the same updates and checks the
// parent-only forest after each one.
type forestHarness struct {
	t             *testing.T
	g             *graph.Graph
	w             []float64
	ser, par, ref *Index
	before        [][]graph.NodeID // per slot: seedOf going into the update
	fresh         *scratch
}

func newForestHarness(t *testing.T, g *graph.Graph, w []float64, seed int64) *forestHarness {
	cfg := Config{K: 3, Theta: 0.7}
	h := &forestHarness{t: t, g: g, w: w, fresh: newScratch(g.N())}
	h.ser = buildIndex(t, g, w, cfg, seed)
	h.ref = buildIndex(t, g, w, cfg, seed)
	cfg.Parallel = true
	h.par = buildIndex(t, g, w, cfg, seed)
	t.Cleanup(h.par.Close)
	h.ser.EnableVoteTracking()
	h.par.EnableVoteTracking()
	h.ref.EnableVoteTracking()
	h.before = make([][]graph.NodeID, cfg.K*h.ser.levels)
	return h
}

// updateSlotBySlot is the reference repair in the order the index used
// before level tasks: Partition.applyBatch then VoteTracker.applyBatch, one
// slot at a time in pyramid-major order on the serial scratch, then one
// flush. It returns a copy of the seed-changed set each slot's repair
// reported to the vote tracker.
func updateSlotBySlot(ix *Index, edges []graph.EdgeID, ws []float64) [][]graph.NodeID {
	olds := make([]float64, len(edges))
	for i, e := range edges {
		olds[i], ix.weights[e] = ix.weights[e], ws[i]
	}
	var reported [][]graph.NodeID
	for p := range ix.parts {
		for l := range ix.parts[p] {
			moved := ix.parts[p][l].applyBatch(ix.scratch, edges, olds)
			reported = append(reported, append([]graph.NodeID(nil), moved...))
			ix.votes.applyBatch(p, l+1, moved)
		}
	}
	ix.votes.flushFlips()
	return reported
}

// update scales the given distinct edges and verifies every invariant the
// issue lists: the certificate (and, through Validate, the vote tracker
// without its trigger loop), equality with a fresh rebuild on the same
// seeds, serial/parallel/slot-by-slot agreement, and that applyBatch
// reported exactly the nodes whose seed moved.
func (h *forestHarness) update(what string, edges []graph.EdgeID, factors []float64) {
	h.t.Helper()
	ws := make([]float64, len(edges))
	for i, e := range edges {
		h.w[e] *= factors[i]
		ws[i] = h.w[e]
	}
	for slot := range h.before {
		h.before[slot] = append(h.before[slot][:0], h.ref.parts[slot/h.ref.levels][slot%h.ref.levels].seedOf...)
	}
	h.ser.UpdateEdges(edges, ws)
	h.par.UpdateEdges(edges, ws)
	reports := updateSlotBySlot(h.ref, edges, ws)
	for _, ix := range []*Index{h.ser, h.par, h.ref} {
		if msg := ix.Validate(); msg != "" {
			h.t.Fatalf("%s: parallel=%v: %s", what, ix.cfg.Parallel, msg)
		}
	}
	for slot := range h.before {
		p, l := slot/h.ser.levels, slot%h.ser.levels
		sp, pp, rp := h.ser.parts[p][l], h.par.parts[p][l], h.ref.parts[p][l]
		want := newPartition(h.g, h.ser.weights, sp.seeds, h.fresh)
		reported := map[graph.NodeID]bool{}
		for _, x := range reports[slot] {
			if reported[x] {
				h.t.Fatalf("%s: slot %d reports node %d twice", what, slot, x)
			}
			reported[x] = true
		}
		for v := 0; v < h.g.N(); v++ {
			if sp.seedOf[v] != want.seedOf[v] || pp.seedOf[v] != want.seedOf[v] || rp.seedOf[v] != want.seedOf[v] {
				h.t.Fatalf("%s: slot %d node %d: seed serial %d parallel %d slot-by-slot %d, rebuild %d",
					what, slot, v, sp.seedOf[v], pp.seedOf[v], rp.seedOf[v], want.seedOf[v])
			}
			//anclint:ignore floateq the repaired forest must reproduce the rebuild's distances bit for bit
			if sp.dist[v] != want.dist[v] || pp.dist[v] != want.dist[v] || rp.dist[v] != want.dist[v] {
				h.t.Fatalf("%s: slot %d node %d: dist serial %v parallel %v slot-by-slot %v, rebuild %v",
					what, slot, v, sp.dist[v], pp.dist[v], rp.dist[v], want.dist[v])
			}
			if moved := h.before[slot][v] != rp.seedOf[v]; moved != reported[graph.NodeID(v)] {
				h.t.Fatalf("%s: slot %d node %d: seed %d -> %d but reported=%v",
					what, slot, v, h.before[slot][v], rp.seedOf[v], reported[graph.NodeID(v)])
			}
		}
	}
}

// randomBatch draws distinct edges with a mix of increases and decreases.
func randomBatch(rng *rand.Rand, m int) ([]graph.EdgeID, []float64) {
	size := 1 + rng.Intn(24)
	seen := map[graph.EdgeID]bool{}
	var edges []graph.EdgeID
	var factors []float64
	for len(edges) < size {
		e := graph.EdgeID(rng.Intn(m))
		if seen[e] {
			continue
		}
		seen[e] = true
		f := 0.2 + 0.7*rng.Float64() // decrease
		if rng.Intn(2) == 0 {
			f = 1.2 + 3*rng.Float64() // increase
		}
		edges, factors = append(edges, e), append(factors, f)
	}
	return edges, factors
}

// treeChildren counts the forest children of x in partition p and names one
// grandchild (None if x has none).
func treeChildren(p *Partition, x graph.NodeID) (n int, deepest graph.NodeID) {
	deepest = graph.None
	for _, h := range p.g.Neighbors(x) {
		if p.parent[h.To] != x {
			continue
		}
		n++
		for _, hh := range p.g.Neighbors(h.To) {
			if p.parent[hh.To] == h.To {
				deepest = hh.To
			}
		}
	}
	return n, deepest
}

// TestForestDifferential is the randomized differential test of the
// parent-pointer-only forest (no children lists): star-heavy and
// planted-community graphs, batches mixing increases and decreases, an
// orphaned hub of degree ≥ 200, and nested orphaned subtrees listed in both
// orders within one batch.
func TestForestDifferential(t *testing.T) {
	t.Run("star-heavy", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		g, hubs := starHeavyGraph(rng, 4, 220)
		h := newForestHarness(t, g, randomWeights(rng, g.M()), 7)
		for round := 0; round < 6; round++ {
			// Find a partition where a non-seed hub parents ≥ 200 nodes and
			// has a grandchild: `up` cuts the hub off, `inner` cuts inside
			// the subtree that `up` orphans.
			up, inner := graph.None, graph.None
			for _, pyr := range h.ser.parts {
				for _, p := range pyr {
					for _, hub := range hubs {
						n, grand := treeChildren(p, hub)
						if up == graph.None && p.parent[hub] != graph.None && n >= 200 && grand != graph.None {
							up = g.FindEdge(hub, p.parent[hub])
							inner = g.FindEdge(grand, p.parent[grand])
						}
					}
				}
			}
			if up == graph.None {
				t.Fatal("fixture: no non-seed hub with ≥ 200 forest children and a grandchild")
			}
			switch round % 3 {
			case 0:
				h.update("orphan hub", []graph.EdgeID{up}, []float64{30})
			case 1:
				h.update("nested, enclosing first", []graph.EdgeID{up, inner}, []float64{30, 30})
			case 2:
				h.update("nested, inner first", []graph.EdgeID{inner, up}, []float64{30, 30})
			}
			// Bring the hub back so the next round finds it attached again.
			h.update("reattach", []graph.EdgeID{up, inner}, []float64{1.0 / 30, 0.5})
			for step := 0; step < 8; step++ {
				edges, factors := randomBatch(rng, g.M())
				h.update("random batch", edges, factors)
			}
		}
	})
	t.Run("planted", func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		g := plantedGraph(rng, 6, 40)
		h := newForestHarness(t, g, randomWeights(rng, g.M()), 11)
		for step := 0; step < 80; step++ {
			edges, factors := randomBatch(rng, g.M())
			h.update("random batch", edges, factors)
		}
	})
}

// TestHotPathAllocs is the dynamic half of the //anclint:hotpath contract
// for relink, probe and markChanged (make bench-smoke): the kernels, and
// the whole repair with vote tracking around them, serial and on the
// worker pool, run without allocating once the scratch buffers are warm —
// a children list, a per-update map, a grown changed set, a per-call
// closure or barrier all show here.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, hubs := starHeavyGraph(rng, 2, 220)
	w := randomWeights(rng, g.M())
	hubEdge := g.Neighbors(hubs[0])[0].Edge
	var ix *Index
	for _, parallel := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Parallel = parallel
		ix = buildIndex(t, g, w, cfg, 3)
		t.Cleanup(ix.Close)
		ix.EnableVoteTracking().OnFlip(func(int, graph.EdgeID, bool) {})
		up := true
		step := func() {
			f := 1.0 / 30
			if up = !up; up {
				f = 30
			}
			ix.UpdateEdge(hubEdge, ix.weights[hubEdge]*f)
		}
		for i := 0; i < 8; i++ {
			step() // warm the scratches and the flip buffers
		}
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Fatalf("parallel=%v repair allocates %v times per update, want 0", parallel, n)
		}
	}
	p, s := ix.parts[0][0], ix.scratch
	if n := testing.AllocsPerRun(100, func() {
		s.begin()
		s.markChanged(1, p.seedOf[1])
		p.probe(s, 1, 0, g.FindEdge(0, 1))
		p.relink(1, p.parent[1])
	}); n != 0 {
		t.Fatalf("markChanged/probe/relink allocate %v times per run, want 0", n)
	}
}

// TestFlipOrderSerialEqualsParallel pins the OnFlip emission order of the
// level-task repair: on planted and star-heavy graphs over random batches,
// the serial and the pooled index emit the identical sequence, and every
// level's subsequence equals the one of a reference repaired slot by slot
// in pyramid-major order. Under -race it also proves the level tasks share
// no coalescing state: one dirty list for all levels is a data race.
func TestFlipOrderSerialEqualsParallel(t *testing.T) {
	type flip struct {
		l    int
		e    graph.EdgeID
		pass bool
	}
	record := func(ix *Index, into *[]flip) {
		ix.EnableVoteTracking().OnFlip(func(l int, e graph.EdgeID, pass bool) {
			*into = append(*into, flip{l, e, pass})
		})
	}
	ofLevel := func(fs []flip, l int) []flip {
		var out []flip
		for _, f := range fs {
			if f.l == l {
				out = append(out, f)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(303))
	star, _ := starHeavyGraph(rng, 4, 60)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"planted", plantedGraph(rng, 6, 40)}, {"star-heavy", star}} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(404))
			w := randomWeights(rng, g.M())
			cfg := DefaultConfig()
			ser, ref := buildIndex(t, g, w, cfg, 9), buildIndex(t, g, w, cfg, 9)
			cfg.Parallel = true
			par := buildIndex(t, g, w, cfg, 9)
			t.Cleanup(par.Close)
			var fs, fp, fr []flip
			record(ser, &fs)
			record(par, &fp)
			record(ref, &fr)
			total := 0
			for step := 0; step < 150; step++ {
				edges, factors := randomBatch(rng, g.M())
				ws := make([]float64, len(edges))
				for i, e := range edges {
					w[e] *= factors[i]
					ws[i] = w[e]
				}
				fs, fp, fr = fs[:0], fp[:0], fr[:0]
				ser.UpdateEdges(edges, ws)
				par.UpdateEdges(edges, ws)
				updateSlotBySlot(ref, edges, ws)
				if !reflect.DeepEqual(fs, fp) {
					t.Fatalf("step %d: serial flips %v, parallel %v", step, fs, fp)
				}
				for l := 1; l <= ser.Levels(); l++ {
					if got, want := ofLevel(fp, l), ofLevel(fr, l); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d level %d: flips %v, slot-by-slot reference %v", step, l, got, want)
					}
				}
				total += len(fp)
			}
			if total == 0 {
				t.Fatal("fixture: no flips emitted, the order was never exercised")
			}
		})
	}
}
