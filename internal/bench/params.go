package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"anc/internal/baseline/agglo"
	"anc/internal/baseline/pll"
	"anc/internal/core"
	"anc/internal/dataset"
	"anc/internal/graph"
	"anc/internal/pyramid"
	"anc/internal/quality"
)

// ParamRow is one point of the Table II sensitivity sweeps.
type ParamRow struct {
	Param string
	Value float64
	NMI   float64
	// Seconds is the build time, relevant for the k sweep.
	Seconds float64
}

// ParamSensitivity sweeps the paper's four parameters (Table II) on the LA
// counterpart, reporting NMI against the planted truth and build time.
func ParamSensitivity(cfg Config, w io.Writer) []ParamRow {
	spec, err := dataset.ByName("LA")
	if err != nil {
		panic(err)
	}
	pl := genCounterpart(spec, cfg.TargetN, cfg.Seed)
	g := pl.Graph
	truthK := quality.NumClusters(pl.Truth)
	var rows []ParamRow

	run := func(param string, value float64, mutate func(*core.Options)) {
		opts := ancOptions(core.ANCF, 7, cfg.Seed)
		mutate(&opts)
		var nw *core.Network
		secs := timeOneCore(func() {
			var err error
			nw, err = core.New(g, opts)
			if err != nil {
				panic(err)
			}
		}).Seconds()
		c, _ := nw.ClustersNear(truthK)
		labels := quality.FilterNoise(c.Labels, 3)
		rows = append(rows, ParamRow{param, value, quality.NMI(labels, pl.Truth), secs})
		logf(cfg, w, "# params %s=%v done\n", param, value)
	}

	for _, k := range []int{2, 4, 8, 16} {
		run("k", float64(k), func(o *core.Options) { o.Pyramid.K = k })
	}
	for _, rep := range []int{0, 1, 3, 5, 7, 9} {
		run("rep", float64(rep), func(o *core.Options) { o.Rep = rep })
	}
	for _, eps := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		run("epsilon", eps, func(o *core.Options) { o.Similarity.Epsilon = eps })
	}
	for _, mu := range []int{2, 3, 4, 5, 6, 7, 8, 9} {
		run("mu", float64(mu), func(o *core.Options) { o.Similarity.Mu = mu })
	}
	return rows
}

// PrintParams renders the sensitivity sweeps.
func PrintParams(w io.Writer, rows []ParamRow) {
	t := newTable(w)
	t.row("param", "value", "NMI", "build seconds")
	for _, r := range rows {
		t.row(r.Param, r.Value, r.NMI, r.Seconds)
	}
	t.flush()
}

// AblationRow is one finding of the design-choice ablations that
// DESIGN.md calls out.
type AblationRow struct {
	Name  string
	Value string
	Score float64
}

// Ablations runs the design ablations: even vs power clustering quality,
// the θ support-threshold sweep, and vote tracking vs per-query polling.
func Ablations(cfg Config, w io.Writer) []AblationRow {
	spec, err := dataset.ByName("LA")
	if err != nil {
		panic(err)
	}
	pl := genCounterpart(spec, cfg.TargetN, cfg.Seed)
	g := pl.Graph
	truthK := quality.NumClusters(pl.Truth)
	var rows []AblationRow

	// Even vs power clustering: error amplification shows as a lower NMI
	// for even clustering (any mis-voted bridge merges whole clusters).
	nw, err := core.New(g, ancOptions(core.ANCF, 7, cfg.Seed))
	if err != nil {
		panic(err)
	}
	_, lvl := nw.ClustersNear(truthK)
	power := quality.FilterNoise(nw.Clusters(lvl).Labels, 3)
	even := quality.FilterNoise(nw.EvenClusters(lvl).Labels, 3)
	rows = append(rows,
		AblationRow{"clustering", "power", quality.NMI(power, pl.Truth)},
		AblationRow{"clustering", "even", quality.NMI(even, pl.Truth)})

	// θ sweep: vote support vs quality.
	for _, theta := range []float64{0.3, 0.5, 0.7, 0.9} {
		opts := ancOptions(core.ANCF, 7, cfg.Seed)
		opts.Pyramid.Theta = theta
		nwT, err := core.New(g, opts)
		if err != nil {
			panic(err)
		}
		c, _ := nwT.ClustersNear(truthK)
		rows = append(rows, AblationRow{"theta", ftoa(theta), quality.NMI(quality.FilterNoise(c.Labels, 3), pl.Truth)})
	}

	// Vote tracking: evaluating H_l over all edges with tracked counts vs
	// polling the K partitions per edge — the work the tracker replaces.
	// (Full cluster extraction is dominated by the shared BFS, so the
	// sweep is measured in isolation.)
	nwV, err := core.New(g, ancOptions(core.ANCO, 7, cfg.Seed))
	if err != nil {
		panic(err)
	}
	sweep := func() {
		for i := 0; i < 50; i++ {
			for e := 0; e < g.M(); e++ {
				nwV.Index().Votes(graph.EdgeID(e), lvl)
			}
		}
	}
	poll := timeIt(sweep).Seconds()
	nwV.Index().EnableVoteTracking()
	tracked := timeIt(sweep).Seconds()
	rows = append(rows,
		AblationRow{"votes", "poll-sweep-seconds", poll},
		AblationRow{"votes", "tracked-sweep-seconds", tracked})

	// Batched-rescale interval vs numerical drift: with the global decay
	// factor, anchored state grows as e^{λ·interval}; the drift of true
	// similarity values after a long stream measures the float error the
	// rescale bounds. Score = max relative deviation of S between an
	// aggressive (every 64 activations) and a lazy (every 65536) rescale.
	driftA := runDriftProbe(g, 64, cfg.Seed)
	driftB := runDriftProbe(g, 65536, cfg.Seed)
	maxDev := 0.0
	for e := range driftA {
		d := math.Abs(driftA[e]-driftB[e]) / math.Max(driftA[e], 1e-300)
		if d > maxDev {
			maxDev = d
		}
	}
	rows = append(rows, AblationRow{"rescale", "max-rel-drift", maxDev})

	// Exact distance index (PLL) vs the pyramids: the Section II argument.
	// PLL gives exact distances but its build cost and label size grow
	// fast and every weight change invalidates it; the pyramids build in
	// near-linear time and repair locally.
	weights := make([]float64, g.M())
	for e := range weights {
		weights[e] = nw.Index().Weight(graph.EdgeID(e))
	}
	wf := func(e graph.EdgeID) float64 { return weights[e] }
	var pllIx *pll.Index
	pllBuild := timeIt(func() { pllIx = pll.Build(g, wf) }).Seconds()
	var pyrIx *pyramid.Index
	pyrBuild := timeOneCore(func() {
		var err error
		pyrIx, err = pyramid.Build(g, wf, pyramid.DefaultConfig(), rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			panic(err)
		}
	}).Seconds()
	rows = append(rows,
		AblationRow{"distindex", "pll-build-seconds", pllBuild},
		AblationRow{"distindex", "pyramids-build-seconds", pyrBuild},
		AblationRow{"distindex", "pll-MB", float64(pllIx.MemoryBytes()) / (1 << 20)},
		AblationRow{"distindex", "pyramids-MB", float64(pyrIx.MemoryBytes()) / (1 << 20)})
	// Average sketch stretch vs PLL's exact answers.
	probe := rand.New(rand.NewSource(cfg.Seed + 5))
	stretch, count := 0.0, 0
	for trial := 0; trial < 200; trial++ {
		u := graph.NodeID(probe.Intn(g.N()))
		v := graph.NodeID(probe.Intn(g.N()))
		if u == v {
			continue
		}
		exact := pllIx.Query(u, v)
		est := pyrIx.EstimateDistance(u, v)
		if math.IsInf(exact, 1) || math.IsInf(est, 1) || exact == 0 {
			continue
		}
		stretch += est / exact
		count++
	}
	if count > 0 {
		rows = append(rows, AblationRow{"distindex", "sketch-avg-stretch", stretch / float64(count)})
	}

	// Hierarchical zoom: agglomerative dendrogram (recomputed per
	// snapshot) vs the pyramids' maintained granularities. The dendrogram
	// gives one comparable clustering quality but its per-snapshot build
	// is the cost the paper's Related Work rejects.
	var dendro *agglo.Dendrogram
	aggloBuild := timeIt(func() { dendro = agglo.Build(g, unitWeights(g.M())) }).Seconds()
	aggloLabels := quality.FilterNoise(dendro.CutAt(truthK), 3)
	zoomQuery := timeIt(func() {
		for l := 1; l <= nw.Index().Levels(); l++ {
			nw.Clusters(l)
		}
	}).Seconds()
	rows = append(rows,
		AblationRow{"zoom", "agglo-build-seconds", aggloBuild},
		AblationRow{"zoom", "agglo-NMI", quality.NMI(aggloLabels, pl.Truth)},
		AblationRow{"zoom", "pyramids-all-levels-seconds", zoomQuery})
	logf(cfg, w, "# ablations done\n")
	return rows
}

// runDriftProbe streams a fixed activation sequence with a given rescale
// interval and returns the final true similarity of every edge.
func runDriftProbe(g *graph.Graph, rescaleEvery int, seed int64) []float64 {
	opts := ancOptions(core.ANCO, 0, seed)
	opts.RescaleEvery = rescaleEvery
	opts.Lambda = 0.4
	nw, err := core.New(g, opts)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed + 1234))
	now := 0.0
	for i := 0; i < 3000; i++ {
		now += rng.Float64() * 0.1
		nw.Activate(graph.EdgeID(rng.Intn(g.M())), now)
	}
	out := make([]float64, g.M())
	for e := range out {
		out[e] = nw.Similarity().At(graph.EdgeID(e))
	}
	return out
}

func ftoa(f float64) string { return fmt.Sprintf("%.2g", f) }

// PrintAblations renders the ablation findings.
func PrintAblations(w io.Writer, rows []AblationRow) {
	t := newTable(w)
	t.row("ablation", "variant", "score")
	for _, r := range rows {
		t.row(r.Name, r.Value, r.Score)
	}
	t.flush()
}
