package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

func benchIndex(b testing.TB, n int) *pyramid.Index {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	gb := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		gb.AddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v))
	}
	for i := 0; i < n*3; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			gb.AddEdge(u, v)
		}
	}
	g := gb.Build()
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 0.1 + rng.Float64()
	}
	ix, err := pyramid.Build(g, func(e graph.EdgeID) float64 { return w[e] },
		pyramid.DefaultConfig(), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkEven measures even clustering (the Lemma 8 O(m log n) path) —
// what an uncached EvenClusters query with no baseline runs, and what
// BenchmarkEvenRepair is read against.
func BenchmarkEven(b *testing.B) {
	ix := benchIndex(b, 4096)
	l := pyramid.SqrtLevel(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Even(ix, l)
	}
}

// BenchmarkPower measures power clustering (DirectedCluster) — what every
// uncached Clusters query and the tracked level's first publication run, and
// what BenchmarkPowerRepair is read against. make bench-smoke runs it with
// -benchmem: a per-call degree sort or per-cluster member slices show up as
// allocs/op far above TestHotPathAllocs' constant.
func BenchmarkPower(b *testing.B) {
	ix := benchIndex(b, 4096)
	l := pyramid.SqrtLevel(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Power(ix, l)
	}
}

// BenchmarkPowerRepair is BenchmarkPower's counterpart on the repair
// paths: the tracked level's, repaired inside every ingest call that flips
// it, and any other level's, repaired by the first reader after a write
// along the flips logged since its baseline. Compare ns/op and B/op with
// BenchmarkPower; the sub-benchmarks sweep the log (benchRepair).
func BenchmarkPowerRepair(b *testing.B) {
	benchRepair(b, Power, func(r *Repairer, ix *pyramid.Index, l int, prev *Clustering, log []graph.EdgeID) *Clustering {
		cl, _, _ := r.Repair(ix, l, prev, log)
		return cl
	})
}

// BenchmarkEvenRepair is BenchmarkPowerRepair for the even clustering,
// read against BenchmarkEven.
func BenchmarkEvenRepair(b *testing.B) {
	benchRepair(b, Even, (*Repairer).RepairEven)
}

// benchRepair times one repair of the Θ(√n) level of the 4096-node bench
// index along a flip log accumulated over 1, 8 or 64 writes of 64 random
// reweights (writes=…), or over as many writes as it takes for the clusters
// the log touches to hold half the nodes (touched=half): the crossover a
// fallback to the whole recompute would need. Only the repair is timed;
// flips/op is the log's length and touched-share the share of the nodes in
// the baseline's clusters that hold an endpoint of a logged edge.
func benchRepair(b *testing.B, full func(*pyramid.Index, int) *Clustering,
	repair func(*Repairer, *pyramid.Index, int, *Clustering, []graph.EdgeID) *Clustering) {
	const n = 4096
	for _, writes := range []int{1, 8, 64, 0} {
		name := fmt.Sprintf("writes=%d", writes)
		if writes == 0 {
			name = "touched=half"
		}
		b.Run(name, func(b *testing.B) {
			ix := benchIndex(b, n)
			l := pyramid.SqrtLevel(n)
			feed := newFlipFeed(ix, l, 4)
			var r Repairer
			cur := full(ix, l)
			var log []graph.EdgeID
			flips, touched := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				log = feed.accumulate(log[:0], writes, 64)
				for writes == 0 && touchedNodes(cur, ix, log) < n/2 {
					log = feed.accumulate(log, 1, 64)
				}
				flips += len(log)
				touched += touchedNodes(cur, ix, log)
				b.StartTimer()
				cur = repair(&r, ix, l, cur, log)
			}
			b.ReportMetric(float64(flips)/float64(b.N), "flips/op")
			b.ReportMetric(float64(touched)/float64(b.N*n), "touched-share")
		})
	}
}

// touchedNodes counts the nodes in the clusters of cl that hold an
// endpoint of an edge in log.
func touchedNodes(cl *Clustering, ix *pyramid.Index, log []graph.EdgeID) int {
	ids := map[int32]bool{}
	nodes := 0
	for _, e := range log {
		u, v := ix.Graph().Endpoints(e)
		for _, id := range []int32{cl.Labels[u], cl.Labels[v]} {
			if !ids[id] {
				ids[id] = true
				nodes += len(cl.Clusters[id])
			}
		}
	}
	return nodes
}

// BenchmarkLocal measures the output-proportional local query (Lemma 9).
func BenchmarkLocal(b *testing.B) {
	ix := benchIndex(b, 4096)
	l := pyramid.SqrtLevel(4096)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Local(ix, l, graph.NodeID(rng.Intn(4096)))
	}
}
