// Benchmarks regenerating the paper's evaluation. Each table/figure has a
// Benchmark* entry driving internal/bench at a laptop scale; run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or e.g. -bench=BenchmarkExp6UpdateVsReconstruct for
// a single figure. cmd/ancbench runs the same experiments with
// configurable scale and prints the full tables (see EXPERIMENTS.md).
package anc_test

import (
	"io"
	"math/rand"
	"testing"

	"anc/internal/bench"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/dataset"
	"anc/internal/gen"
	"anc/internal/graph"
	"anc/internal/pyramid"
	"anc/internal/similarity"
)

func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.TargetN = 300
	cfg.EffTargetN = 2048
	cfg.Steps = 30
	cfg.SampleEvery = 10
	cfg.Quiet = true
	return cfg
}

// BenchmarkTable1Datasets regenerates the Table I dataset inventory.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1Datasets(benchConfig(), io.Discard)
	}
}

// BenchmarkExp1StaticQuality regenerates Table III (static quality).
func BenchmarkExp1StaticQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp1StaticQuality(benchConfig(), io.Discard)
	}
}

// BenchmarkExp2ActivationTime regenerates Table IV (per-activation cost).
func BenchmarkExp2ActivationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp2ActivationTime(benchConfig(), io.Discard)
	}
}

// BenchmarkExp2QualitySeries regenerates Figure 4 (quality over time) on
// the CO counterpart.
func BenchmarkExp2QualitySeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp2QualitySeries(benchConfig(), io.Discard, []string{"CO"})
	}
}

// BenchmarkExp3IndexTime regenerates Figure 5 (index construction time).
func BenchmarkExp3IndexTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp3IndexTime(benchConfig(), io.Discard)
	}
}

// BenchmarkExp4IndexMemory regenerates Figure 6 (index memory).
func BenchmarkExp4IndexMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp4IndexMemory(benchConfig(), io.Discard)
	}
}

// BenchmarkExp5QueryTime regenerates Figure 7 (extraction time per level).
func BenchmarkExp5QueryTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp5QueryTime(benchConfig(), io.Discard)
	}
}

// BenchmarkExp6UpdateVsReconstruct regenerates Figure 8.
func BenchmarkExp6UpdateVsReconstruct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp6UpdateVsReconstruct(benchConfig(), io.Discard, 10)
	}
}

// BenchmarkExp6DiurnalUpdates regenerates Figure 9 (bursty day, 360 of the
// 1440 minutes at bench scale; cmd/ancbench runs the full day).
func BenchmarkExp6DiurnalUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp6DiurnalUpdates(benchConfig(), io.Discard, 360)
	}
}

// BenchmarkExp6MixedWorkload regenerates Figure 10.
func BenchmarkExp6MixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Exp6MixedWorkload(benchConfig(), io.Discard, 2000)
	}
}

// BenchmarkCaseStudy regenerates the Figure 11 case study.
func BenchmarkCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.CaseStudy(benchConfig(), io.Discard)
	}
}

// BenchmarkParamSensitivity regenerates the Table II parameter sweeps.
func BenchmarkParamSensitivity(b *testing.B) {
	cfg := benchConfig()
	cfg.TargetN = 200
	for i := 0; i < b.N; i++ {
		bench.ParamSensitivity(cfg, io.Discard)
	}
}

// BenchmarkAblations runs the design-choice ablations of DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Ablations(benchConfig(), io.Discard)
	}
}

// --- Micro-benchmarks of the core primitives -----------------------------

func benchNetwork(b *testing.B, method core.Method, n int) (*core.Network, *gen.Planted) {
	b.Helper()
	spec, err := dataset.ByName("FB")
	if err != nil {
		b.Fatal(err)
	}
	pl := spec.Generate(float64(n)/float64(spec.N), rand.New(rand.NewSource(7)))
	opts := core.DefaultOptions()
	opts.Method = method
	opts.Similarity = similarity.Config{Epsilon: 0.3, Mu: 3, SMin: 1e-9, SMax: 1e12}
	opts.Seed = 7
	nw, err := core.New(pl.Graph, opts)
	if err != nil {
		b.Fatal(err)
	}
	return nw, pl
}

// BenchmarkActivateANCO measures the per-activation cost of the fully
// online method (the Table IV primitive).
func BenchmarkActivateANCO(b *testing.B) {
	nw, pl := benchNetwork(b, core.ANCO, 2000)
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Activate(graph.EdgeID(rng.Intn(pl.Graph.M())), float64(i)*1e-3)
	}
}

// BenchmarkIndexBuild measures pyramids construction (the Figure 5
// primitive).
func BenchmarkIndexBuild(b *testing.B) {
	spec, _ := dataset.ByName("FB")
	pl := spec.Generate(0.5, rand.New(rand.NewSource(3)))
	w := make([]float64, pl.Graph.M())
	for i := range w {
		w[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pyramid.Build(pl.Graph, func(e graph.EdgeID) float64 { return w[e] },
			pyramid.DefaultConfig(), rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalQuery measures the output-proportional local cluster query
// (the Lemma 9 primitive).
func BenchmarkLocalQuery(b *testing.B) {
	nw, pl := benchNetwork(b, core.ANCO, 2000)
	level := pyramid.SqrtLevel(pl.Graph.N())
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Local(nw.Index(), level, graph.NodeID(rng.Intn(pl.Graph.N())))
	}
}

// BenchmarkPowerClustering measures full cluster extraction (the Figure 7
// primitive).
func BenchmarkPowerClustering(b *testing.B) {
	nw, pl := benchNetwork(b, core.ANCO, 2000)
	level := pyramid.SqrtLevel(pl.Graph.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Power(nw.Index(), level)
	}
}

// BenchmarkUpdateEdge measures one incremental index update over all
// partitions (the Figure 8 UPDATE primitive), isolated from the
// similarity maintenance.
func BenchmarkUpdateEdge(b *testing.B) {
	spec, _ := dataset.ByName("FB")
	pl := spec.Generate(0.5, rand.New(rand.NewSource(3)))
	w := make([]float64, pl.Graph.M())
	for i := range w {
		w[i] = 1
	}
	ix, err := pyramid.Build(pl.Graph, func(e graph.EdgeID) float64 { return w[e] },
		pyramid.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := graph.EdgeID(rng.Intn(pl.Graph.M()))
		w[e] *= 0.5 + rng.Float64()
		ix.UpdateEdge(e, w[e])
	}
}

// BenchmarkReconstruct measures the RECONSTRUCT baseline for contrast with
// BenchmarkUpdateEdge.
func BenchmarkReconstruct(b *testing.B) {
	spec, _ := dataset.ByName("FB")
	pl := spec.Generate(0.5, rand.New(rand.NewSource(3)))
	w := make([]float64, pl.Graph.M())
	for i := range w {
		w[i] = 1
	}
	ix, err := pyramid.Build(pl.Graph, func(e graph.EdgeID) float64 { return w[e] },
		pyramid.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reconstruct()
	}
}
