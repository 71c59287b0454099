package pyramid

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"anc/internal/graph"
	"anc/internal/obs"
)

// Config controls index construction.
type Config struct {
	// K is the number of pyramids (the voting ensemble size); the paper's
	// default is 4.
	K int
	// Theta is the support threshold of the voting function H_l: two
	// nodes are co-clustered at a level if they share a seed in at least
	// ⌈Theta·K⌉ pyramids. The paper's default is 0.7.
	Theta float64
	// Parallel runs live updates (UpdateEdges, Reconstruct) on a
	// long-lived pool of min(GOMAXPROCS, ⌈log₂ n⌉) workers, one update task
	// per granularity level (Lemma 13: partitions are mutually
	// independent). Off by default: a pooled repair costs concurrent
	// readers latency. Whole-index builds (Build, BuildWithSeeds and the vote count
	// of EnableVoteTracking) fan out over min(GOMAXPROCS, tasks) workers
	// either way, since nothing reads while they run; callers timing a
	// build against single-core work pin GOMAXPROCS to 1. Call Index.Close
	// to stop the pool.
	Parallel bool
}

// DefaultConfig returns the paper's defaults: 4 pyramids, θ = 0.7.
func DefaultConfig() Config { return Config{K: 4, Theta: 0.7} }

func (c *Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("pyramid: K = %d < 1", c.K)
	}
	if c.K > 65535 {
		// Vote counts are tracked in uint16 (see VoteTracker); a larger
		// ensemble would overflow them silently.
		return fmt.Errorf("pyramid: K = %d exceeds the vote-tracking bound 65535", c.K)
	}
	if c.Theta <= 0 || c.Theta > 1 {
		return fmt.Errorf("pyramid: theta %v outside (0,1]", c.Theta)
	}
	return nil
}

// Levels returns the number of granularity levels for an n-node graph:
// ⌈log₂ n⌉, and at least 1.
func Levels(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n) for n ≥ 2
}

// SqrtLevel returns the level whose seed count 2^l is closest to √n from
// above — the Θ(√n)-cluster granularity of Problem 1.
func SqrtLevel(n int) int {
	l := (Levels(n) + 1) / 2
	if l < 1 {
		l = 1
	}
	return l
}

// Index is the pyramids index P: Config.K pyramids, each with Levels(n)
// Voronoi partitions at seed counts 2¹, 2², …, capped at n.
type Index struct {
	g      *graph.Graph
	cfg    Config
	levels int
	// parts[p][l-1] is the partition of pyramid p at granularity level l.
	parts   [][]*Partition
	weights []float64 // anchored edge weights 1/S*, shared by all partitions
	// seedsAt[l-1][p] is parts[p][l-1].seedOf: the slices a Voter binds.
	// A partition rewrites its seedOf in place for its whole life, so these
	// never go stale.
	seedsAt [][][]graph.NodeID
	votes   *VoteTracker

	scratch *scratch // serial-path Dijkstra state, shared by all partitions
	pool    *pool    // worker pool when cfg.Parallel; nil after Close

	met          *Metrics // nil until Instrument; all methods nil-safe
	buildSeconds float64  // construction wall time, observed at Instrument

	// Reusable per-call buffers of the batched update path, so steady
	// ingest allocates nothing: the staged batch the level tasks read, and
	// repairLevel bound once as a method value.
	batchEdges []graph.EdgeID
	batchOld   []float64
	oneEdge    [1]graph.EdgeID
	oneWeight  [1]float64
	levelTask  func(l int, s *scratch)
}

// Build constructs the index over g with the given initial anchored edge
// weights. The rng drives seed selection only; pass a seeded source for
// reproducible experiments. weight(e) must be positive and finite for all
// edges.
func Build(g *graph.Graph, weight func(e graph.EdgeID) float64, cfg Config, rng *rand.Rand) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("pyramid: empty graph")
	}
	levels := Levels(n)
	perm := make([]graph.NodeID, n)
	for i := range perm {
		perm[i] = graph.NodeID(i)
	}
	// Seed sets are drawn sequentially from rng for reproducibility; the
	// partitions themselves are mutually independent (Lemma 13) and are
	// built concurrently.
	seedSets := make([][]graph.NodeID, cfg.K*levels)
	for p := 0; p < cfg.K; p++ {
		for l := 1; l <= levels; l++ {
			seedSets[p*levels+l-1] = sampleSeeds(perm, 1<<uint(l), rng)
		}
	}
	return BuildWithSeeds(g, weight, cfg, seedSets)
}

// BuildWithSeeds constructs the index with explicit seed sets, one per
// (pyramid, level) in pyramid-major order — K·⌈log₂ n⌉ sets in total.
// Used by snapshot restore to reproduce the exact saved index.
func BuildWithSeeds(g *graph.Graph, weight func(e graph.EdgeID) float64, cfg Config, seedSets [][]graph.NodeID) (*Index, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sw := obs.NewStopwatch()
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("pyramid: empty graph")
	}
	ix := &Index{
		g:       g,
		cfg:     cfg,
		levels:  Levels(n),
		weights: make([]float64, g.M()),
		scratch: newScratch(n),
	}
	if len(seedSets) != cfg.K*ix.levels {
		return nil, fmt.Errorf("pyramid: got %d seed sets, want %d", len(seedSets), cfg.K*ix.levels)
	}
	for e := 0; e < g.M(); e++ {
		w := weight(graph.EdgeID(e))
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("pyramid: edge %d has invalid weight %v", e, w)
		}
		ix.weights[e] = w
	}
	ix.parts = make([][]*Partition, cfg.K)
	for p := 0; p < cfg.K; p++ {
		ix.parts[p] = make([]*Partition, ix.levels)
	}
	ix.levelTask = ix.repairLevel
	if cfg.Parallel {
		ix.pool = newPool(poolSize(ix.levels), n)
	}
	ix.build(cfg.K*ix.levels, func(slot int, s *scratch) {
		ix.parts[slot/ix.levels][slot%ix.levels] = newPartition(g, ix.weights, seedSets[slot], s)
	})
	ix.seedsAt = make([][][]graph.NodeID, ix.levels)
	for l := range ix.seedsAt {
		ix.seedsAt[l] = make([][]graph.NodeID, cfg.K)
		for p := range ix.seedsAt[l] {
			ix.seedsAt[l][p] = ix.parts[p][l].seedOf
		}
	}
	ix.buildSeconds = sw.Seconds()
	return ix, nil
}

// each runs fn for every task in [0, tasks): on the worker pool when there
// is one, otherwise inline in task order on the serial scratch — one task
// function, two schedulers.
func (ix *Index) each(tasks int, fn func(task int, s *scratch)) {
	if ix.pool != nil {
		ix.pool.run(tasks, fn)
		return
	}
	for i := 0; i < tasks; i++ {
		fn(i, ix.scratch)
	}
}

// build schedules a whole-index construction: like each, but without a
// pool it still fans out, on a transient pool of min(GOMAXPROCS, tasks)
// workers closed before it returns, so no goroutine outlives the call. A
// width of 1 runs inline. Nothing reads the index while it is being built,
// so the build may take every core; live updates keep to each, where
// Config.Parallel decides. The result does not depend on the scheduler:
// every task writes only its own partition or level.
func (ix *Index) build(tasks int, fn func(task int, s *scratch)) {
	if w := poolSize(tasks); ix.pool == nil && w > 1 {
		p := newPool(w, ix.g.N())
		defer p.close()
		p.run(tasks, fn)
		return
	}
	ix.each(tasks, fn)
}

// Close stops the worker pool, waiting until every worker goroutine has
// exited — after Close returns, the index has leaked nothing. Subsequent
// updates fall back to the serial path. Close is idempotent but must not
// race an in-flight update; owners call it once when retiring the index.
func (ix *Index) Close() {
	if ix.pool != nil {
		ix.pool.close()
		ix.pool = nil
	}
}

// sampleSeeds draws min(k, n) distinct nodes uniformly at random using a
// partial Fisher–Yates shuffle of the shared permutation.
func sampleSeeds(perm []graph.NodeID, k int, rng *rand.Rand) []graph.NodeID {
	n := len(perm)
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	seeds := make([]graph.NodeID, k)
	copy(seeds, perm[:k])
	return seeds
}

// SeedSets returns a copy of every partition's seed set in pyramid-major
// order, suitable for BuildWithSeeds.
func (ix *Index) SeedSets() [][]graph.NodeID {
	out := make([][]graph.NodeID, 0, ix.cfg.K*ix.levels)
	for p := 0; p < ix.cfg.K; p++ {
		for l := 1; l <= ix.levels; l++ {
			out = append(out, append([]graph.NodeID(nil), ix.parts[p][l-1].Seeds()...))
		}
	}
	return out
}

// Graph returns the indexed relation graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Config returns the construction parameters.
func (ix *Index) Config() Config { return ix.cfg }

// Levels returns the number of granularity levels.
func (ix *Index) Levels() int { return ix.levels }

// Weight returns the current anchored weight of edge e as stored in the
// index.
func (ix *Index) Weight(e graph.EdgeID) float64 { return ix.weights[e] }

// Partition returns the Voronoi partition of pyramid p ∈ [0, K) at level
// l ∈ [1, Levels()].
func (ix *Index) Partition(p, l int) *Partition { return ix.parts[p][l-1] }

// MinSupport returns the vote threshold ⌈θ·K⌉ (at least 1).
func (ix *Index) MinSupport() int {
	s := int(math.Ceil(ix.cfg.Theta * float64(ix.cfg.K)))
	if s < 1 {
		s = 1
	}
	return s
}

// Voter is the voting function H_l of one level, bound once per query:
// Keep(u, v, e) decides whether edge e = (u, v) survives at that level.
// With a VoteTracker attached it reads the tracked count; without, it polls
// the K partitions' seeds and stops as soon as the outcome is decided. Both
// equal Votes(e, l) ≥ MinSupport(). A Voter reads the index's live state:
// it is valid while the index is not written, like any read.
type Voter struct {
	counts []uint16         // tracked counts at the level; nil when untracked
	seeds  [][]graph.NodeID // each pyramid's seedOf at the level; untracked
	min    int              // ⌈θ·K⌉
	miss   int              // K − ⌈θ·K⌉: the misses that still allow a pass
}

// Voter binds the voting function of level l ∈ [1, Levels()]. Binding
// allocates nothing.
func (ix *Index) Voter(l int) Voter {
	min := ix.MinSupport()
	if ix.votes != nil {
		return Voter{counts: ix.votes.counts[l-1], min: min}
	}
	return Voter{seeds: ix.seedsAt[l-1], min: min, miss: ix.cfg.K - min}
}

// Keep reports whether edge e, with endpoints u and v in either order,
// survives the vote: Votes(e, l) ≥ MinSupport() at the bound level.
//
//anclint:hotpath
func (b *Voter) Keep(u, v graph.NodeID, e graph.EdgeID) bool {
	if b.counts != nil {
		return int(b.counts[e]) >= b.min
	}
	return b.poll(u, v)
}

// poll is Keep without a tracker: ⌈θ·K⌉ shared seeds pass the edge and
// K − ⌈θ·K⌉ + 1 unshared ones fail it, whichever comes first.
//
//anclint:hotpath
func (b *Voter) poll(u, v graph.NodeID) bool {
	hits, misses := 0, 0
	for _, seedOf := range b.seeds {
		if s := seedOf[u]; s != graph.None && s == seedOf[v] {
			hits++
			if hits >= b.min {
				return true
			}
		} else {
			misses++
			if misses > b.miss {
				return false
			}
		}
	}
	return false
}

// Votes returns, for edge e at level l, the number of pyramids whose
// partition assigns both endpoints of e to the same (non-None) seed. It is
// the reference a Voter is checked against; queries bind a Voter instead.
func (ix *Index) Votes(e graph.EdgeID, l int) int {
	if ix.votes != nil {
		return ix.votes.Votes(e, l)
	}
	u, v := ix.g.Endpoints(e)
	c := 0
	for p := 0; p < ix.cfg.K; p++ {
		part := ix.parts[p][l-1]
		if s := part.Seed(u); s != graph.None && s == part.Seed(v) {
			c++
		}
	}
	return c
}

// SameCluster evaluates the voting function H_l for the node pair (u, v):
// true when at least ⌈θ·K⌉ pyramids put u and v under the same seed.
func (ix *Index) SameCluster(u, v graph.NodeID, l int) bool {
	c := 0
	for p := 0; p < ix.cfg.K; p++ {
		part := ix.parts[p][l-1]
		if s := part.Seed(u); s != graph.None && s == part.Seed(v) {
			c++
		}
	}
	return c >= ix.MinSupport()
}

// UpdateEdge applies a new anchored weight to edge e across every
// partition of every pyramid (the paper's UPDATE). The cost per partition
// is bounded by the affected set (Lemma 12); partitions are mutually
// independent and updated concurrently on the worker pool when
// Config.Parallel is set (Lemma 13).
func (ix *Index) UpdateEdge(e graph.EdgeID, newWeight float64) {
	ix.oneEdge[0] = e
	ix.oneWeight[0] = newWeight
	ix.UpdateEdges(ix.oneEdge[:], ix.oneWeight[:])
}

// UpdateEdges applies new anchored weights to a set of distinct edges in
// one repair pass per partition — the batched UPDATE behind ActivateBatch.
// Compared with a loop over UpdateEdge it saves one heap pass and one
// pool barrier per edge per partition, and relaxes overlapping affected
// regions once. Edges must be distinct; bit-exact no-op changes are
// skipped (the same contract as UpdateEdge). The repair runs as one
// repairLevel task per granularity level, dispatched level 1 first: the
// lowest levels have the fewest seeds and so the largest Voronoi cells to
// repair, and starting them first is longest-first scheduling.
func (ix *Index) UpdateEdges(edges []graph.EdgeID, newWeights []float64) {
	ix.batchEdges = ix.batchEdges[:0]
	ix.batchOld = ix.batchOld[:0]
	for i, e := range edges {
		w := newWeights[i]
		//anclint:ignore floateq bit-exact no-op detection: skipping only exact duplicates is safe, an epsilon would silently drop real updates
		if w == ix.weights[e] {
			continue
		}
		ix.batchEdges = append(ix.batchEdges, e)
		ix.batchOld = append(ix.batchOld, ix.weights[e])
		ix.weights[e] = w
	}
	if len(ix.batchEdges) == 0 {
		return
	}
	t := ix.met.updateStart()
	ix.each(ix.levels, ix.levelTask)
	if ix.votes != nil {
		ix.votes.flushFlips()
	}
	t.Stop()
}

// repairLevel is the level task of UpdateEdges: it repairs the K
// partitions of level l+1 in pyramid order against the staged batch, then
// refreshes that level's vote counts from each partition's seed-changed
// set while it is still in the scratch. Every piece of mutable state it
// touches — the partitions, the counts, the coalescing buffers — belongs
// to its level, so tasks of different levels run concurrently unsynchronized.
func (ix *Index) repairLevel(l int, s *scratch) {
	for p := range ix.parts {
		moved := ix.parts[p][l].applyBatch(s, ix.batchEdges, ix.batchOld)
		if len(moved) > 0 {
			ix.met.partitionRepaired()
		}
		if ix.votes != nil {
			ix.votes.applyBatch(p, l+1, moved)
		}
	}
}

// Reconstruct rebuilds every partition from scratch at the current weights
// (keeping the same seed sets), on the worker pool when Config.Parallel is
// set. This is the RECONSTRUCT baseline of Exp 6.
func (ix *Index) Reconstruct() {
	t := ix.met.reconstructStart()
	defer t.Stop()
	ix.each(ix.cfg.K*ix.levels, func(slot int, s *scratch) {
		ix.parts[slot/ix.levels][slot%ix.levels].rebuild(s)
	})
	if ix.votes != nil {
		ix.votes.rebuild(ix.each)
	}
}

// SetWeight overwrites the stored weight of e without repairing the
// partitions; callers must Reconstruct afterwards. Used by the offline
// ANCF path that batches many weight changes before one rebuild.
func (ix *Index) SetWeight(e graph.EdgeID, w float64) { ix.weights[e] = w }

// OnRescale implements decay.Rescalable: the weights 1/S* and all stored
// distances are NegM, so they absorb ×(1/g) (Lemma 10).
func (ix *Index) OnRescale(g float64) {
	inv := 1 / g
	for i := range ix.weights {
		ix.weights[i] *= inv
	}
	for p := range ix.parts {
		for l := range ix.parts[p] {
			ix.parts[p][l].onRescale(inv)
		}
	}
}

// Validate checks the optimality certificate of every partition, returning
// a description of the first violation or "" if the whole index is
// consistent with the current weights. O(K · Levels · (n + m)); test hook.
func (ix *Index) Validate() string {
	for p := range ix.parts {
		for l := range ix.parts[p] {
			if msg := ix.parts[p][l].validate(); msg != "" {
				return fmt.Sprintf("pyramid %d level %d: %s", p, l+1, msg)
			}
		}
	}
	if ix.votes != nil {
		if msg := ix.votes.validate(); msg != "" {
			return msg
		}
	}
	return ""
}

// MemoryBytes estimates the resident size of the index structures
// (excluding the graph itself, as in Exp 4): seed assignments, distances,
// parent forests, the shared weight slice, and the Dijkstra scratches (one
// per worker plus the serial one — no longer one per partition).
func (ix *Index) MemoryBytes() int64 {
	n := int64(ix.g.N())
	perPartition := n*4 + n*8 + n*4            // seedOf + dist + parent: 16 B per node
	perScratch := n*16 + n*4 + n*4 + n*4 + n*4 // heap (prio, item) entries + heap pos + stamp + entry seed + changed
	scratches := int64(1)
	if ix.pool != nil {
		scratches += int64(poolSize(ix.levels))
	}
	total := int64(ix.cfg.K*ix.levels)*perPartition + scratches*perScratch + int64(ix.g.M())*8
	if ix.votes != nil {
		total += ix.votes.memoryBytes()
	}
	return total
}
