// Package bench regenerates every table and figure of the paper's
// evaluation (Section VI) on the synthetic dataset counterparts. Each
// experiment has a function returning structured results plus a printer
// that emits the same rows/series the paper reports; cmd/ancbench and the
// root bench_test.go are thin wrappers over this package.
//
// Scaling: experiments run at a configurable scale so the default `go
// test -bench` finishes in minutes on a laptop. Absolute numbers differ
// from the paper's Java/Xeon setup by construction; the reproduction
// target is the *shape* of each result — who wins, by what order of
// magnitude, and how costs scale (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"anc/internal/core"
	"anc/internal/dataset"
	"anc/internal/decay"
	"anc/internal/gen"
	"anc/internal/graph"
	"anc/internal/pyramid"
	"anc/internal/similarity"
)

// Config scales and seeds every experiment.
type Config struct {
	// TargetN is the node count datasets are downscaled to for the
	// quality experiments (Exp 1, 2). Default 400.
	TargetN int
	// EffTargetN is the largest node count of the efficiency suite
	// (Exps 3–6). Default 4096.
	EffTargetN int
	// Steps is the number of activation timestamps in Exp 2. Default 60
	// (the paper uses 100).
	Steps int
	// SampleEvery controls how often Exp 2 scores quality. Default 10.
	SampleEvery int
	// Seed drives all generators.
	Seed int64
	// Quiet suppresses progress lines.
	Quiet bool
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{TargetN: 400, EffTargetN: 4096, Steps: 60, SampleEvery: 10, Seed: 1}
}

// scaleFor returns the generator scale that hits roughly targetN nodes for
// the given dataset spec.
func scaleFor(s dataset.Spec, targetN int) float64 {
	return float64(targetN) / float64(s.N)
}

// genCounterpart generates a dataset counterpart at the target size.
func genCounterpart(s dataset.Spec, targetN int, seed int64) *gen.Planted {
	return s.Generate(scaleFor(s, targetN), rand.New(rand.NewSource(seed)))
}

// ancOptions returns experiment-wide ANC options tuned for the synthetic
// counterparts: ε and μ mid-range (Table II), a given method and rep.
func ancOptions(method core.Method, rep int, seed int64) core.Options {
	o := core.DefaultOptions()
	o.Method = method
	o.Rep = rep
	o.Seed = seed
	o.Similarity = similarity.Config{Epsilon: 0.3, Mu: 3, SMin: 1e-9, SMax: 1e12}
	return o
}

// unitWeights returns m ones.
func unitWeights(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

// timeIt measures f.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// timeOneCore measures f at GOMAXPROCS 1, then restores it. Index builds
// fan out over every core, but the rows timed with it (Fig. 5, the
// pyramids-vs-PLL build, the parameter sweep's core.New) set build time
// against the paper's single-core runs and single-threaded baselines.
func timeOneCore(f func()) time.Duration {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return timeIt(f)
}

// activenessTracker maintains plain decayed activeness weights for the
// baselines (DYNA, LWEP, SCAN, LOUV), mirroring what the paper feeds
// them. Decay routes through decay.Clock (the nakedexp invariant): the
// tracker registers as a Rescalable store, and each tick advances the
// clock one time unit and rescales, which folds g = exp(-λ·1) into the
// weights.
type activenessTracker struct {
	clock *decay.Clock
	act   []float64
	lastG float64
}

func newActivenessTracker(m int, lambda float64) *activenessTracker {
	t := &activenessTracker{clock: decay.NewClock(lambda), act: unitWeights(m)}
	t.clock.Register(t)
	return t
}

// OnRescale implements decay.Rescalable: activeness is PosM, so the
// anchored weights absorb ×g.
func (a *activenessTracker) OnRescale(g float64) {
	for i := range a.act {
		a.act[i] *= g
	}
	a.lastG = g
}

// tick decays all weights by one time unit and returns the factor.
func (a *activenessTracker) tick() float64 {
	a.clock.Advance(a.clock.Now() + 1)
	a.clock.Rescale()
	return a.lastG
}

// activate records one activation. The clock is always freshly rescaled
// (tick rescales every step), so the anchored increment 1/g is exactly 1.
func (a *activenessTracker) activate(e graph.EdgeID) {
	a.act[e] += 1 / a.clock.G()
}

// percentile returns the q-quantile (0..1) of the (unsorted) durations.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// table is a small helper over tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.tw, "%.4g", v)
		default:
			fmt.Fprint(t.tw, v)
		}
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() } //anclint:ignore droppederr stdout report table; a failed flush garbles console output, not data

// buildIndexOnly builds a pyramids index over a graph with unit weights —
// the Exp 3/4 primitive (index construction is similarity-independent).
func buildIndexOnly(g *graph.Graph, k int, seed int64) *pyramid.Index {
	w := unitWeights(g.M())
	ix, err := pyramid.Build(g, func(e graph.EdgeID) float64 { return w[e] },
		pyramid.Config{K: k, Theta: 0.7}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err) // generator-produced graphs are always valid
	}
	return ix
}

func logf(cfg Config, w io.Writer, format string, args ...interface{}) {
	if !cfg.Quiet {
		fmt.Fprintf(w, format, args...)
	}
}
