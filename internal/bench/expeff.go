package bench

import (
	"io"
	"math/rand"

	"anc/internal/cluster"
	"anc/internal/dataset"
	"anc/internal/graph"
)

// EffSuite returns the graph suite of the efficiency experiments: dataset
// counterparts in increasing size, capped at cfg.EffTargetN. The paper's
// Figures 5–8 span CA…TW; the counterparts span a ~32× size range so the
// linear scaling shape is visible at laptop scale.
func EffSuite(cfg Config) []string {
	return []string{"CA", "LA", "CM", "IE", "GI", "DB"}
}

// effTarget maps a suite position to a target node count: a geometric ramp
// ending at cfg.EffTargetN.
func effTarget(cfg Config, i, total int) int {
	n := cfg.EffTargetN
	for j := total - 1; j > i; j-- {
		n /= 2
	}
	if n < 128 {
		n = 128
	}
	return n
}

// Exp3Row is one bar of Figure 5: index construction time.
type Exp3Row struct {
	Dataset string
	N, M    int
	K       int
	Seconds float64
}

// Exp3IndexTime reproduces Figure 5: index time with k ∈ {2,4,8,16}
// pyramids across the suite.
func Exp3IndexTime(cfg Config, w io.Writer) []Exp3Row {
	var rows []Exp3Row
	suite := EffSuite(cfg)
	for i, name := range suite {
		spec, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		pl := genCounterpart(spec, effTarget(cfg, i, len(suite)), cfg.Seed+int64(i))
		g := pl.Graph
		for _, k := range []int{2, 4, 8, 16} {
			secs := timeOneCore(func() { buildIndexOnly(g, k, cfg.Seed) }).Seconds()
			rows = append(rows, Exp3Row{name, g.N(), g.M(), k, secs})
			logf(cfg, w, "# exp3 %s n=%d k=%d: %.3fs\n", name, g.N(), k, secs)
		}
	}
	return rows
}

// PrintExp3 renders Figure 5 as a table.
func PrintExp3(w io.Writer, rows []Exp3Row) {
	t := newTable(w)
	t.row("dataset", "n", "m", "k", "index seconds")
	for _, r := range rows {
		t.row(r.Dataset, r.N, r.M, r.K, r.Seconds)
	}
	t.flush()
}

// Exp4Row is one bar of Figure 6: index memory.
type Exp4Row struct {
	Dataset string
	N, M    int
	K       int
	Bytes   int64
}

// Exp4IndexMemory reproduces Figure 6: index size with k ∈ {4,8,16}.
func Exp4IndexMemory(cfg Config, w io.Writer) []Exp4Row {
	var rows []Exp4Row
	suite := EffSuite(cfg)
	for i, name := range suite {
		spec, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		pl := genCounterpart(spec, effTarget(cfg, i, len(suite)), cfg.Seed+int64(i))
		g := pl.Graph
		for _, k := range []int{4, 8, 16} {
			ix := buildIndexOnly(g, k, cfg.Seed)
			rows = append(rows, Exp4Row{name, g.N(), g.M(), k, ix.MemoryBytes()})
		}
		logf(cfg, w, "# exp4 %s done\n", name)
	}
	return rows
}

// PrintExp4 renders Figure 6 as a table.
func PrintExp4(w io.Writer, rows []Exp4Row) {
	t := newTable(w)
	t.row("dataset", "n", "m", "k", "index MB")
	for _, r := range rows {
		t.row(r.Dataset, r.N, r.M, r.K, float64(r.Bytes)/(1<<20))
	}
	t.flush()
}

// Exp5Row is one bar of Figure 7: cluster extraction time per level.
type Exp5Row struct {
	Dataset string
	N, M    int
	Level   int
	Seconds float64
}

// Exp5QueryTime reproduces Figure 7: DirectedCluster (power clustering)
// extraction time at levels 4–8.
func Exp5QueryTime(cfg Config, w io.Writer) []Exp5Row {
	var rows []Exp5Row
	suite := []string{"GI", "DB"} // the larger counterparts
	for i, name := range suite {
		spec, err := dataset.ByName(name)
		if err != nil {
			panic(err)
		}
		pl := genCounterpart(spec, cfg.EffTargetN, cfg.Seed+int64(i))
		g := pl.Graph
		ix := buildIndexOnly(g, 4, cfg.Seed)
		for l := 4; l <= 8 && l <= ix.Levels(); l++ {
			secs := timeIt(func() { cluster.Power(ix, l) }).Seconds()
			rows = append(rows, Exp5Row{name, g.N(), g.M(), l, secs})
		}
		logf(cfg, w, "# exp5 %s done\n", name)
	}
	return rows
}

// PrintExp5 renders Figure 7 as a table.
func PrintExp5(w io.Writer, rows []Exp5Row) {
	t := newTable(w)
	t.row("dataset", "n", "m", "level", "extract seconds")
	for _, r := range rows {
		t.row(r.Dataset, r.N, r.M, r.Level, r.Seconds)
	}
	t.flush()
}

// randomWeightChanges draws count (edge, factor) weight perturbations.
func randomWeightChanges(m, count int, rng *rand.Rand) ([]graph.EdgeID, []float64) {
	edges := make([]graph.EdgeID, count)
	factors := make([]float64, count)
	for i := range edges {
		edges[i] = graph.EdgeID(rng.Intn(m))
		factors[i] = 0.3 + rng.Float64()*2.4
	}
	return edges, factors
}
