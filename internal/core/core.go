// Package core wires the paper's pieces into the three Activation Network
// Clustering methods evaluated in Section VI:
//
//   - ANCO  — fully online: every activation applies its unit impact to the
//     similarity and triggers a bounded index update; no local
//     reinforcement after initialization.
//   - ANCOR — online with periodic reinforcement: like ANCO, plus a local
//     reinforcement pass over the recently activated edges every
//     ReinforceInterval time units (5 timestamps by default).
//   - ANCF  — offline: activations are buffered; Snapshot() applies Rep
//     rounds of local reinforcement to the activated edges and
//     reconstructs the pyramids from scratch, modeling the paper's
//     per-snapshot recomputation.
//
// A Network owns the decay clock, the similarity store and the pyramids
// index, and exposes the clustering queries of Problem 1.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"anc/internal/analytics"
	"anc/internal/cluster"
	clustercache "anc/internal/cluster/cache"
	"anc/internal/decay"
	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/pyramid"
	"anc/internal/ring"
	"anc/internal/similarity"
)

// Method selects the update policy of a Network.
type Method uint8

const (
	// ANCO is the fully online method (fastest updates).
	ANCO Method = iota
	// ANCOR is online with local reinforcement at intervals.
	ANCOR
	// ANCF is the offline method that recomputes per snapshot.
	ANCF
)

// String returns the paper's name of the method.
func (m Method) String() string {
	switch m {
	case ANCO:
		return "ANCO"
	case ANCOR:
		return "ANCOR"
	case ANCF:
		return "ANCF"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Options configures a Network. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	// Method selects ANCO, ANCOR or ANCF.
	Method Method
	// Lambda is the decay factor λ of the time-decay scheme.
	Lambda float64
	// Rep is the number of local-reinforcement repetitions used to
	// initialize S₀ (and, for ANCF, per snapshot). Paper default: 7.
	Rep int
	// ReinforceInterval is the ANCOR reinforcement period in time units.
	// Paper default: 5 timestamps.
	ReinforceInterval float64
	// Similarity holds ε, μ and the similarity clamps.
	Similarity similarity.Config
	// Pyramid holds K, θ and the parallel-update switch.
	Pyramid pyramid.Config
	// Seed drives pyramid seed selection for reproducible experiments.
	Seed int64
	// RescaleEvery overrides the batched-rescale period in activations;
	// 0 keeps the decay package default.
	RescaleEvery int
}

// DefaultOptions returns the paper's default parameters (Table II): λ=0.1,
// rep=7, reinforcement interval 5, k=4 pyramids, θ=0.7.
func DefaultOptions() Options {
	return Options{
		Method:            ANCO,
		Lambda:            0.1,
		Rep:               7,
		ReinforceInterval: 5,
		Similarity:        similarity.DefaultConfig(),
		Pyramid:           pyramid.DefaultConfig(),
	}
}

// Network is an indexed activation network: the relation graph, the decayed
// similarity state and the pyramids index, kept mutually consistent under
// the activation stream.
type Network struct {
	g     *graph.Graph
	opts  Options
	clock *decay.Clock
	sim   *similarity.Store
	ix    *pyramid.Index

	pending     []graph.EdgeID // edges awaiting reinforcement (ANCOR/ANCF)
	pendingMark []bool
	lastFlush   float64
	met         *metrics      // nil until Instrument; all methods nil-safe
	reg         *obs.Registry // the registry Instrument attached, for late cache enablement

	// cache, when enabled, serves Clusters/EvenClusters lock-free from
	// materialized per-level snapshots, invalidated by vote-threshold
	// crossings. Nil until EnableClusterCache; every cache method is
	// nil-safe, so the query path needs no enablement branch.
	cache *clustercache.Cache

	// Analytics (DESIGN.md §16): the TieRank snapshot cache and the
	// cluster-evolution tracker. Nil until EnableAnalytics; all methods
	// on both are nil-safe. The tracked level's power log collects the
	// edges whose vote flipped there since the last diff; the ingest paths
	// settle them via afterRepair, which repairs the level's clustering
	// from them with repairer.
	rank     *analytics.RankCache
	evo      *analytics.Tracker
	repairer cluster.Repairer

	// logs holds, per level, each variant's baseline and flip log
	// (repair.go): what a cache miss repairs instead of recomputing. flips
	// is the ring of every vote flip, the cluster-change feed (Flips). Both
	// are nil until the flip listener is registered (listen). readers pools
	// the miss path's Repairers.
	logs    []levelLogs
	flips   *ring.Ring[Flip]
	readers sync.Pool

	// Ingest scratch: the dirty-edge set of the current batch and the
	// weight buffers handed to the index, reused so steady ingest
	// allocates nothing.
	batchEdges    []graph.EdgeID
	batchEdgeMark []bool
	batchWeights  []float64
	flushWeights  []float64
	one           [1]Activation // Activate's batch

	// Stats counts work done, for the experiment harness.
	Stats struct {
		Activations  int64
		Flushes      int64
		Reconstructs int64
	}
}

// New builds a Network over g: the similarity store starts from uniform
// activeness 1 and S₀ = 1, then Opts.Rep rounds of local reinforcement over
// all edges fold the structural cohesiveness into S₀ (Section IV-C), and
// the pyramids are built on the resulting weights.
func New(g *graph.Graph, opts Options) (*Network, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	clock := decay.NewClock(opts.Lambda)
	if opts.RescaleEvery > 0 {
		clock.SetRescaleEvery(opts.RescaleEvery)
	}
	sim, err := similarity.New(g, clock, 1, opts.Similarity)
	if err != nil {
		return nil, err
	}
	for r := 0; r < opts.Rep; r++ {
		for e := 0; e < g.M(); e++ {
			sim.Reinforce(graph.EdgeID(e))
		}
	}
	ix, err := pyramid.Build(g, sim.Weight, opts.Pyramid, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, err
	}
	clock.Register(ix)
	nw := &Network{
		g:             g,
		opts:          opts,
		clock:         clock,
		sim:           sim,
		ix:            ix,
		pendingMark:   make([]bool, g.M()),
		batchEdgeMark: make([]bool, g.M()),
	}
	clock.Register(nw)
	return nw, nil
}

// OnRescale implements decay.Rescalable, registered after the index. The
// rescale folds g into S and 1/g into the index weights, which round
// differently, so it gives every edge whose index weight stands for 1/S
// that value back exactly: all but the running batch's unsettled edges
// and ANCF's pending ones. The index weights then depend on the stream
// alone, and a loaded copy, which builds them from 1/S, holds the same.
func (nw *Network) OnRescale(float64) {
	for e := range nw.batchEdgeMark {
		if !nw.batchEdgeMark[e] && !(nw.opts.Method == ANCF && nw.pendingMark[e]) {
			nw.ix.SetWeight(graph.EdgeID(e), nw.sim.Weight(graph.EdgeID(e)))
		}
	}
}

// Graph returns the relation graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Options returns the construction options.
func (nw *Network) Options() Options { return nw.opts }

// Clock returns the decay clock.
func (nw *Network) Clock() *decay.Clock { return nw.clock }

// Similarity returns the similarity store.
func (nw *Network) Similarity() *similarity.Store { return nw.sim }

// Index returns the pyramids index.
func (nw *Network) Index() *pyramid.Index { return nw.ix }

// validateOptions rejects parameter combinations that would corrupt or
// panic the pipeline. It is shared by New and the snapshot loader, so a
// corrupt snapshot cannot smuggle in values New would refuse.
func validateOptions(opts Options) error {
	if opts.Lambda < 0 || math.IsNaN(opts.Lambda) || math.IsInf(opts.Lambda, 0) {
		return fmt.Errorf("core: invalid lambda %v", opts.Lambda)
	}
	if opts.Rep < 0 {
		return fmt.Errorf("core: negative rep %d", opts.Rep)
	}
	if opts.Method == ANCOR && !(opts.ReinforceInterval > 0) {
		return fmt.Errorf("core: ANCOR needs a positive ReinforceInterval")
	}
	return nil
}

// Activate feeds the activation (e, t) into the network: it is
// ActivateBatch of the one-element batch, over an array the network owns,
// so it allocates nothing and there is one ingest semantics. It returns an
// error — before touching any state — when e is out of range or t violates
// the ingest contract (see anc.Network.Activate).
func (nw *Network) Activate(e graph.EdgeID, t float64) error {
	nw.one[0] = Activation{Edge: e, T: t}
	return nw.ActivateBatchTraced(nw.one[:], trace.SpanHandle{})
}

// Activation is one timestamped edge activation — the unit of ingest.
type Activation struct {
	Edge graph.EdgeID
	T    float64
}

// ActivateBatch feeds a batch of activations through the ingest pipeline —
// the per-minute batch processing of Exp 6 (Figure 9). The whole batch is
// validated up front (edges in range, timestamps finite, non-decreasing,
// and not before the current time); an invalid batch is rejected as a unit
// with no state touched. The decay clock advances once per distinct
// timestamp, and repeated activations of the same edge coalesce into one
// index update per distinct edge. Every decision that shapes the state is
// taken per activation, at the same point whatever the batch boundaries:
// a rescale runs when time strictly advances past the rescale period
// (decay.Clock.Advance), and ANCOR's reinforcement flushes at each interval
// boundary before the clock advances to it. So the state after a stream is
// a function of the stream alone, however it was chunked into calls
// (TestStateIsAFunctionOfTheStream).
func (nw *Network) ActivateBatch(batch []Activation) error {
	return nw.ActivateBatchTraced(batch, trace.SpanHandle{})
}

// ActivateBatchTraced is ActivateBatch carrying the request's span: each
// settle's pyramid index update is recorded as a "pyramid.repair" child
// and the end-of-batch analytics invalidation as "core.invalidate". A
// zero handle (the ActivateBatch path) makes every span call a no-op, so
// the untraced pipeline is unchanged. The clock stays untouched here —
// span timing happens inside the trace package, keeping this package
// deterministic.
func (nw *Network) ActivateBatchTraced(batch []Activation, sp trace.SpanHandle) error {
	if len(batch) == 0 {
		return nil
	}
	prev := nw.clock.Now()
	for i, a := range batch {
		if a.Edge < 0 || int(a.Edge) >= nw.g.M() {
			return fmt.Errorf("core: batch[%d]: edge %d out of range [0, %d)", i, a.Edge, nw.g.M())
		}
		if math.IsNaN(a.T) || math.IsInf(a.T, 0) {
			return fmt.Errorf("core: batch[%d]: non-finite activation timestamp %v", i, a.T)
		}
		if a.T < prev {
			return fmt.Errorf("core: batch[%d]: timestamp %v precedes %v (timestamps must be non-decreasing)", i, a.T, prev)
		}
		prev = a.T
	}
	for _, a := range batch {
		if a.T > nw.clock.Now() {
			if nw.opts.Method == ANCOR && a.T >= nw.lastFlush+nw.opts.ReinforceInterval {
				// Interval boundary: settle the index with the batch so
				// far, then flush at the time the interval ended.
				nw.settleBatch(sp)
				nw.flush()
				nw.lastFlush = a.T
			}
			nw.clock.Advance(a.T)
		}
		nw.sim.BumpNoReinforce(a.Edge)
		nw.clock.ActivatedN(1)
		nw.markBatch(a.Edge)
		if nw.opts.Method != ANCO {
			nw.addPending(a.Edge)
		}
	}
	nw.settleBatch(sp)
	nw.Stats.Activations += int64(len(batch))
	nw.met.activated(len(batch))
	nw.met.batched()
	isp := sp.StartChild("core.invalidate")
	nw.afterRepair()
	isp.End()
	return nil
}

// markBatch records e in the batch's dirty-edge set.
func (nw *Network) markBatch(e graph.EdgeID) {
	if !nw.batchEdgeMark[e] {
		nw.batchEdgeMark[e] = true
		nw.batchEdges = append(nw.batchEdges, e)
	}
}

// settleBatch applies the deferred per-distinct work of the running batch:
// except for the buffering ANCF, one batched index update over the dirty
// edges' final weights. When the batch is traced, the index update — the
// pyramid repair — is recorded as a child span.
func (nw *Network) settleBatch(sp trace.SpanHandle) {
	if len(nw.batchEdges) == 0 {
		return
	}
	if nw.opts.Method != ANCF {
		nw.batchWeights = nw.batchWeights[:0]
		for _, e := range nw.batchEdges {
			nw.batchWeights = append(nw.batchWeights, nw.sim.Weight(e))
		}
		rsp := sp.StartChild("pyramid.repair")
		nw.ix.UpdateEdges(nw.batchEdges, nw.batchWeights)
		rsp.AnnotateInt("edges", int64(len(nw.batchEdges)))
		rsp.End()
	}
	for _, e := range nw.batchEdges {
		nw.batchEdgeMark[e] = false
	}
	nw.batchEdges = nw.batchEdges[:0]
}

// Close stops the index worker pool (when parallel updates are enabled),
// waiting for its goroutines to exit. The network remains usable
// afterwards; updates fall back to the serial path.
func (nw *Network) Close() { nw.ix.Close() }

// ActivatePair is Activate keyed by endpoints; it returns an error when the
// relation graph has no such edge (activations only occur along existing
// edges in an activation network).
func (nw *Network) ActivatePair(u, v graph.NodeID, t float64) error {
	e := nw.g.FindEdge(u, v)
	if e == graph.None {
		return fmt.Errorf("core: no edge (%d, %d) in the relation graph", u, v)
	}
	return nw.Activate(e, t)
}

func (nw *Network) addPending(e graph.EdgeID) {
	if !nw.pendingMark[e] {
		nw.pendingMark[e] = true
		nw.pending = append(nw.pending, e)
	}
}

// Flush applies one local reinforcement pass to every pending trigger edge
// and pushes the resulting weight changes into the index incrementally.
// ANCOR does the same automatically at interval boundaries; Flush is the
// entry point for end-of-stream synchronization.
func (nw *Network) Flush() {
	nw.flush()
	nw.afterRepair()
}

// flush is Flush inside an ingest call, whose own afterRepair follows.
func (nw *Network) flush() {
	if len(nw.pending) == 0 {
		return
	}
	nw.Stats.Flushes++
	nw.met.flushed()
	nw.flushWeights = nw.flushWeights[:0]
	for _, e := range nw.pending {
		nw.flushWeights = append(nw.flushWeights, nw.sim.Reinforce(e))
		nw.pendingMark[e] = false
	}
	nw.ix.UpdateEdges(nw.pending, nw.flushWeights)
	nw.pending = nw.pending[:0]
}

// Snapshot realizes the ANCF policy at the current time: Rep rounds of
// local reinforcement over the edges activated since the last snapshot
// ("updates the index P for each snapshot of S_t with rep repetitions of
// local reinforcement", Section VI), followed by a full index
// reconstruction — the offline recomputation whose cost Table IV charges
// ANCF. Reinforcement is restricted to the snapshot's trigger edges:
// reinforcing the entire edge set at every snapshot compounds across the
// stream and polarizes S (Attractor-style), washing out the temporal
// signal the activeness carries. For other methods Snapshot is a cheaper
// Flush.
//
// A non-nil error means a reinforced weight left the finite range — the
// repeated reinforcement overflowed the similarity clamp — and the index
// was left untouched; the buffered activations remain pending.
func (nw *Network) Snapshot() error {
	if nw.opts.Method != ANCF {
		nw.Flush()
		return nil
	}
	for r := 0; r < nw.opts.Rep; r++ {
		for _, e := range nw.pending {
			nw.sim.Reinforce(e)
		}
	}
	// Validate every reinforced weight before touching the index, so a
	// failed snapshot never applies partially.
	for _, e := range nw.pending {
		if w := nw.sim.Weight(e); math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: snapshot: non-finite weight %v on edge %d after reinforcement", w, e)
		}
	}
	nw.Stats.Reconstructs++
	nw.met.reconstructed()
	for _, e := range nw.pending {
		nw.ix.SetWeight(e, nw.sim.Weight(e))
		nw.pendingMark[e] = false
	}
	nw.pending = nw.pending[:0]
	nw.ix.Reconstruct()
	// The reconstruction reports its net vote flips, so the change feed
	// sees them, but it replaced every partition wholesale and may leave
	// logs longer than a recompute costs: drop everything, baselines and
	// logs included, and recompute and diff the tracked level whole.
	nw.cache.InvalidateAll()
	nw.rank.Invalidate()
	nw.resetLogs()
	if nw.evo != nil {
		cl := cluster.Power(nw.ix, nw.evo.Level())
		nw.cache.ReplacePower(nw.evo.Level(), cl)
		nw.evo.Observe(cl, nw.clock.Now())
	}
	return nil
}

// afterRepair is the analytics hook at the end of every mutating entry
// point (Activate, ActivateBatch, Flush): any activation moves relative
// edge weights, so the cached TieRank eigenvector is dropped
// unconditionally; the evolution tracker diffs only when a vote flip
// touched its level — clusterings are a pure function of vote pass
// states, so no flip means no transition to report. The level's clustering
// is repaired from the tracker's baseline along the level's power log, so
// only the clusters it touches are searched and diffed; the result is
// cluster.Power's, byte for byte, and it is also what the clustering cache
// serves at that level from now on: it replaces the pre-write entry, which
// the flips deliberately left in place (see onFlip).
// Exclusive-writer context, like the cache invalidations it extends.
func (nw *Network) afterRepair() {
	nw.rank.Invalidate()
	level := nw.evo.Level()
	if level == 0 {
		return
	}
	flips := &nw.logs[level-1].power
	if len(flips.log) == 0 {
		return
	}
	cl, dirtyOld, dirtyNew := nw.repairer.Repair(nw.ix, level, nw.evo.Baseline(), flips.log)
	flips.rebase(nil)
	nw.cache.ReplacePower(level, cl)
	nw.evo.ObserveRepair(cl, dirtyOld, dirtyNew, nw.clock.Now())
}

// EnableClusterCache materializes per-level clustering results: Clusters
// and EvenClusters memoize their answer and serve repeats lock-free from
// an atomically swapped snapshot until a net vote-threshold crossing
// invalidates the level (see internal/cluster/cache); the next miss
// repairs the dropped entry along the level's flips. The first call pays
// the vote tracker's one-time O(K·L·m) initialization if Flips has not
// already; it returns the cache so facades can probe it before taking
// their locks. Idempotent.
func (nw *Network) EnableClusterCache() *clustercache.Cache {
	if nw.cache == nil {
		nw.attachClusterCache(clustercache.New(nw.ix.Levels()))
	}
	return nw.cache
}

// attachClusterCache makes c this network's clustering cache: vote flips
// invalidate its levels from now on (onFlip), and no baseline of an
// earlier cache survives.
func (nw *Network) attachClusterCache(c *clustercache.Cache) {
	nw.listen()
	nw.resetLogs()
	c.Instrument(nw.reg)
	nw.cache = c
}

// ClusterCache returns the materialized clustering cache, or nil if
// EnableClusterCache was never called. Every cache method is nil-safe.
func (nw *Network) ClusterCache() *clustercache.Cache { return nw.cache }

// EnableAnalytics turns on the live analytics layer (DESIGN.md §16): a
// TieRank snapshot cache invalidated on every ingest, and a
// cluster-evolution tracker diffing the power clustering at the Θ(√n)
// level across pyramid repairs, driven by the same coalesced vote-flip
// notifications as the clustering cache. The current clustering seeds
// the tracker, so enabling emits no event storm. Like
// EnableClusterCache it pays the vote tracker's one-time
// initialization, and it returns the rank cache so facades can probe it
// before taking their locks. Idempotent.
func (nw *Network) EnableAnalytics() *analytics.RankCache {
	if nw.rank == nil {
		level := pyramid.SqrtLevel(nw.g.N())
		if max := nw.ix.Levels(); level > max {
			level = max
		}
		if level < 1 {
			level = 1
		}
		nw.attachAnalytics(analytics.NewRankCache(), analytics.NewTracker(level, analytics.DefaultTrackerConfig()))
	}
	return nw.rank
}

// attachAnalytics makes r this network's rank cache and evo its evolution
// tracker, seeded silently with the current clustering at evo's level.
func (nw *Network) attachAnalytics(r *analytics.RankCache, evo *analytics.Tracker) {
	nw.listen()
	nw.resetLogs()
	nw.rank, nw.evo = r, evo
	nw.evo.Seed(nw.Clusters(evo.Level()))
	nw.rank.Instrument(nw.reg)
	nw.evo.Instrument(nw.reg)
}

// AdoptCaches is EnableClusterCache and EnableAnalytics over the caches,
// evolution tracker and flip ring of from, a same-shaped network being
// replaced: a facade restoring a snapshot keeps the instances its
// lock-free readers probe, and their counters. The caches are invalidated
// first; the tracker keeps its sequence, ring and drop total and is
// re-seeded silently with nw's clustering, and the flip ring keeps its
// sequence, so every cursor stays valid. from must have both enabled, nw
// neither. Exclusive-writer context.
func (nw *Network) AdoptCaches(from *Network) {
	from.cache.InvalidateAll()
	from.rank.Invalidate()
	nw.flips = from.flips
	nw.attachClusterCache(from.cache)
	nw.attachAnalytics(from.rank, from.evo)
}

// RankCache returns the TieRank snapshot cache, or nil if
// EnableAnalytics was never called. Every method on it is nil-safe.
func (nw *Network) RankCache() *analytics.RankCache { return nw.rank }

// EvolutionTracker returns the cluster-evolution tracker, or nil if
// EnableAnalytics was never called. Every method on it is nil-safe.
func (nw *Network) EvolutionTracker() *analytics.Tracker { return nw.evo }

// TieRank returns the current TieRank eigenvector, serving the cached
// snapshot when one is valid (it stays exact between ingests — uniform
// decay cancels under normalization) and otherwise running the power
// iteration over the anchored similarities and publishing the result.
// Works without EnableAnalytics; it just computes every time.
func (nw *Network) TieRank() *analytics.Rank {
	if r, ok := nw.rank.Get(); ok {
		return r
	}
	t := nw.rank.ComputeTimer()
	r := analytics.ComputeRank(nw.g, nw.sim.Anchored, nw.clock.Now(), analytics.DefaultRankConfig())
	t.Stop()
	nw.rank.Store(r)
	return r
}

// EvolutionEvents returns the buffered cluster-evolution events with
// sequence numbers after since, plus the newest sequence number and the
// cumulative ring-overwrite count. Non-draining and idempotent; empty
// until EnableAnalytics.
func (nw *Network) EvolutionEvents(since uint64) ([]analytics.Event, uint64, uint64) {
	return nw.evo.Events(since)
}

// EvolutionDrops returns the cumulative number of evolution events
// overwritten in the ring before being read. Zero until EnableAnalytics.
func (nw *Network) EvolutionDrops() uint64 { return nw.evo.DroppedTotal() }

// Clusters reports the power clustering (the paper's DirectedCluster) at
// the given granularity level, served from the materialized cache when it
// is enabled and the level is valid since the last vote flip, and
// otherwise repaired or recomputed (miss) and stored.
func (nw *Network) Clusters(level int) *cluster.Clustering {
	if cl, ok := nw.cache.Power(level); ok {
		return cl
	}
	cl := nw.miss(level, false)
	nw.cache.StorePower(level, cl)
	return cl
}

// EvenClusters reports the even clustering at the given level, cached like
// Clusters.
func (nw *Network) EvenClusters(level int) *cluster.Clustering {
	if cl, ok := nw.cache.Even(level); ok {
		return cl
	}
	cl := nw.miss(level, true)
	nw.cache.StoreEven(level, cl)
	return cl
}

// ClustersUncached recomputes the power clustering directly, bypassing the
// materialized cache — the forced-recompute baseline of the equivalence
// tests and the A/B benchmark.
func (nw *Network) ClustersUncached(level int) *cluster.Clustering {
	return cluster.Power(nw.ix, level)
}

// EvenClustersUncached recomputes the even clustering directly, bypassing
// the cache.
func (nw *Network) EvenClustersUncached(level int) *cluster.Clustering {
	return cluster.Even(nw.ix, level)
}

// LocalCluster reports the cluster containing v at the given level in
// output-proportional time (Lemma 9).
func (nw *Network) LocalCluster(v graph.NodeID, level int) []graph.NodeID {
	return cluster.Local(nw.ix, level, v)
}

// View opens a zoomable navigator at the Θ(√n) granularity.
func (nw *Network) View() *cluster.View { return cluster.NewView(nw.ix) }

// ClustersNear reports, among all granularity levels, the power clustering
// whose non-noise cluster count is closest to target — how the experiments
// align our granularities with a baseline's fixed cluster count.
func (nw *Network) ClustersNear(target int) (*cluster.Clustering, int) {
	var best *cluster.Clustering
	bestLevel := 1
	bestGap := int(^uint(0) >> 1)
	for l := 1; l <= nw.ix.Levels(); l++ {
		c := nw.Clusters(l)
		gap := c.SizesAtLeast(3) - target
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			best, bestLevel, bestGap = c, l, gap
		}
	}
	return best, bestLevel
}
