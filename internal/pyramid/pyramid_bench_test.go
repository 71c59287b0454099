package pyramid

import (
	"math/rand"
	"testing"

	"anc/internal/graph"
)

func benchGraph(b *testing.B, n int) (*graph.Graph, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, n, n*4)
	return g, randomWeights(rng, g.M())
}

func BenchmarkPartitionBuild(b *testing.B) {
	g, w := benchGraph(b, 4096)
	seeds := sampleSeeds(perm(g.N()), 64, rand.New(rand.NewSource(2)))
	s := newScratch(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newPartition(g, w, seeds, s)
	}
}

func perm(n int) []graph.NodeID {
	p := make([]graph.NodeID, n)
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	return p
}

func BenchmarkUpdateDecrease(b *testing.B) {
	g, w := benchGraph(b, 4096)
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, DefaultConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		w[e] *= 0.9
		ix.UpdateEdge(e, w[e])
	}
}

func BenchmarkUpdateIncrease(b *testing.B) {
	g, w := benchGraph(b, 4096)
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, DefaultConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.EdgeID(rng.Intn(g.M()))
		w[e] *= 1.1
		ix.UpdateEdge(e, w[e])
	}
}

// BenchmarkUpdateEdgesHub cuts a degree-2000 hub off its parent and lets it
// back, over and over: every iteration orphans the hub with its whole
// subtree and re-attaches it. With children lists, detaching the orphans
// one by one scanned the hub's list once per leaf — quadratic in the
// degree; the parent-only forest walks the adjacency once. make bench-smoke
// runs it with -benchmem (0 allocs/op once the scratch is warm).
func BenchmarkUpdateEdgesHub(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, hubs := starHeavyGraph(rng, 2, 2000)
	w := randomWeights(rng, g.M())
	ix := buildIndex(b, g, w, DefaultConfig(), 3)
	ix.EnableVoteTracking()
	e := g.FindEdge(hubs[0], hubs[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 30.0
		if i%2 == 1 {
			f = 1.0 / 30
		}
		w[e] *= f
		ix.UpdateEdge(e, w[e])
	}
}

// BenchmarkUpdateEdgesBatch is the batched repair behind ActivateBatch, on
// the serial path and on the worker pool: 88 distinct edges per op, three
// quarters decreased by ×0.9 and one quarter increased by ×(1/0.9)³ (so the
// weights do not drift), on the 4096-node bench graph with vote tracking
// on. make bench-smoke runs it with -benchmem; both paths run at 0
// allocs/op once warm.
func BenchmarkUpdateEdgesBatch(b *testing.B) {
	const batch = 88
	g, w := benchGraph(b, 4096)
	for _, parallel := range []bool{false, true} {
		name := "serial"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallel = parallel
			ix := buildIndex(b, g, w, cfg, 3)
			defer ix.Close()
			ix.EnableVoteTracking()
			rng := rand.New(rand.NewSource(4))
			edges, ws := make([]graph.EdgeID, 0, batch), make([]float64, 0, batch)
			picked := make([]int, g.M()) // op that last picked each edge, plus one
			op := 0
			update := func() {
				op++
				edges, ws = edges[:0], ws[:0]
				for len(edges) < batch {
					e := graph.EdgeID(rng.Intn(g.M()))
					if picked[e] == op {
						continue
					}
					picked[e] = op
					f := 0.9
					if len(edges)%4 == 3 {
						f = 1 / (0.9 * 0.9 * 0.9)
					}
					edges, ws = append(edges, e), append(ws, ix.Weight(e)*f)
				}
				ix.UpdateEdges(edges, ws)
			}
			for i := 0; i < 8; i++ {
				update() // warm the scratches and the index's reusable buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				update()
			}
		})
	}
}

func BenchmarkEstimateDistance(b *testing.B) {
	g, w := benchGraph(b, 4096)
	ix, err := Build(g, func(e graph.EdgeID) float64 { return w[e] }, DefaultConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.EstimateDistance(graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N())))
	}
}

func BenchmarkVotesPollVsTracked(b *testing.B) {
	g, w := benchGraph(b, 2048)
	b.Run("poll", func(b *testing.B) {
		ix, _ := Build(g, func(e graph.EdgeID) float64 { return w[e] }, DefaultConfig(), rand.New(rand.NewSource(3)))
		l := SqrtLevel(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for e := 0; e < g.M(); e++ {
				ix.Votes(graph.EdgeID(e), l)
			}
		}
	})
	b.Run("tracked", func(b *testing.B) {
		ix, _ := Build(g, func(e graph.EdgeID) float64 { return w[e] }, DefaultConfig(), rand.New(rand.NewSource(3)))
		ix.EnableVoteTracking()
		l := SqrtLevel(g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for e := 0; e < g.M(); e++ {
				ix.Votes(graph.EdgeID(e), l)
			}
		}
	})
}
