package pyramid

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"anc/internal/graph"
)

// TestPoolCloseLeaksNothing: building a parallel index spins up the pool;
// Close must drain every worker goroutine.
func TestPoolCloseLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 80)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 3, Theta: 0.7, Parallel: true}, 2)
	if ix.pool == nil {
		t.Fatal("parallel build did not create a pool")
	}
	for step := 0; step < 10; step++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		w[e] *= 0.5 + rng.Float64()
		ix.UpdateEdge(e, w[e])
	}
	ix.Close()
	ix.Close() // idempotent
	// Updates after Close fall back to the serial path.
	w[0] *= 1.3
	ix.UpdateEdge(0, w[0])
	if msg := ix.Validate(); msg != "" {
		t.Fatalf("post-close update: %s", msg)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after close", before, after)
	}
}

// TestBuildLeavesNoGoroutine: a build without Parallel fans out on a
// transient pool that is gone when Build and EnableVoteTracking return, no
// Close needed; a Parallel index holds exactly its pool until Close.
func TestBuildLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // fan out even on one core
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 200, 400)
	w := randomWeights(rng, g.M())
	before := runtime.NumGoroutine()
	ix := buildIndex(t, g, w, Config{K: 3, Theta: 0.7}, 5)
	if got := settleGoroutines(before); got > before {
		t.Fatalf("Build: %d goroutines before, %d after", before, got)
	}
	ix.EnableVoteTracking()
	if got := settleGoroutines(before); got > before {
		t.Fatalf("EnableVoteTracking: %d goroutines before, %d after", before, got)
	}
	par := buildIndex(t, g, w, Config{K: 3, Theta: 0.7, Parallel: true}, 5)
	par.EnableVoteTracking()
	if got, want := settleGoroutines(before+poolSize(par.levels)), before+poolSize(par.levels); got != want {
		t.Fatalf("Parallel index: %d goroutines, want %d (its pool)", got, want)
	}
	par.Close()
	if got := settleGoroutines(before); got > before {
		t.Fatalf("Close: %d goroutines before, %d after", before, got)
	}
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// to want — a worker that has signalled its exit may not have returned yet
// — and returns the last count.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestUpdateEdgesMatchesSequential: a batched UpdateEdges call must leave
// the index in the same state as applying the same changes one at a time,
// serially and in parallel, with vote tracking on.
func TestUpdateEdgesMatchesSequential(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		g := randomGraph(rng, 60, 120)
		w1 := randomWeights(rng, g.M())
		w2 := append([]float64(nil), w1...)
		cfg := Config{K: 3, Theta: 0.7}
		seq := buildIndex(t, g, w1, cfg, 11)
		cfg.Parallel = parallel
		bat := buildIndex(t, g, w2, cfg, 11)
		defer bat.Close()
		seq.EnableVoteTracking()
		bat.EnableVoteTracking()
		upd := rand.New(rand.NewSource(13))
		for round := 0; round < 15; round++ {
			k := 1 + upd.Intn(8)
			edges := make([]graph.EdgeID, 0, k)
			weights := make([]float64, 0, k)
			seen := map[graph.EdgeID]bool{}
			for len(edges) < k {
				e := graph.EdgeID(upd.Intn(g.M()))
				if seen[e] {
					continue
				}
				seen[e] = true
				f := 0.3 + upd.Float64()*2.5
				w1[e] *= f
				w2[e] *= f
				edges = append(edges, e)
				weights = append(weights, w2[e])
			}
			for i, e := range edges {
				seq.UpdateEdge(e, w1[e])
				_ = i
			}
			bat.UpdateEdges(edges, weights)
			if msg := bat.Validate(); msg != "" {
				t.Fatalf("parallel=%v round %d: %s", parallel, round, msg)
			}
		}
		for p := 0; p < 3; p++ {
			for l := 1; l <= seq.Levels(); l++ {
				ps, pb := seq.Partition(p, l), bat.Partition(p, l)
				for v := 0; v < g.N(); v++ {
					ds, db := ps.Dist(graph.NodeID(v)), pb.Dist(graph.NodeID(v))
					if math.IsInf(ds, 1) != math.IsInf(db, 1) || (!math.IsInf(ds, 1) && math.Abs(ds-db) > 1e-6*(1+ds)) {
						t.Fatalf("parallel=%v p%d l%d node %d: seq %v vs batch %v", parallel, p, l, v, ds, db)
					}
				}
			}
		}
	}
}

// TestUpdateEdgesSkipsNoops: a batch consisting entirely of unchanged
// weights must not touch any partition state.
func TestUpdateEdgesSkipsNoops(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 25, 40)
	w := randomWeights(rng, g.M())
	ix := buildIndex(t, g, w, Config{K: 2, Theta: 0.7}, 19)
	part := ix.Partition(0, 2)
	before := make([]float64, g.N())
	for v := range before {
		before[v] = part.Dist(graph.NodeID(v))
	}
	ix.UpdateEdges([]graph.EdgeID{0, 1, 2}, []float64{w[0], w[1], w[2]})
	for v := range before {
		//anclint:ignore floateq no-op batch must be bit-exact, not merely close
		if part.Dist(graph.NodeID(v)) != before[v] {
			t.Fatal("no-op batch changed distances")
		}
	}
}
