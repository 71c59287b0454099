package cluster

import (
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

// BenchmarkEven measures even clustering (the Lemma 8 O(m log n) path).
func BenchmarkEven(b *testing.B) {
	ix := benchIndex(b, 4096)
	l := pyramid.SqrtLevel(4096)
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

// BenchmarkPowerRepair is BenchmarkPower's counterpart on the path ingest
// takes since the tracked level is repaired: the same index under a flip
// load like one serve-burst batch's (some hundred net flips per repair),
// only the repair timed. Compare ns/op and B/op with BenchmarkPower.
func BenchmarkPowerRepair(b *testing.B) {
	ix := benchIndex(b, 4096)
	l := pyramid.SqrtLevel(4096)
	feed := newFlipFeed(ix, l, 4)
	var r Repairer
	cur := Power(ix, l)
	flips := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := feed.step(64)
		flips += len(batch)
		b.StartTimer()
		cur, _, _ = r.Repair(ix, l, cur, batch)
	}
	b.ReportMetric(float64(flips)/float64(b.N), "flips/op")
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
