// Package anc is the public API of the Activation Network Clustering
// library — a from-scratch implementation of "Clustering Activation
// Networks" (ICDE 2022).
//
// An activation network is a relatively stable relation graph plus a stream
// of timestamped interactions ("activations") along existing edges. Under
// the time-decay scheme, an edge's activeness is the sum of exponentially
// decayed activation impacts. The library maintains, incrementally and at a
// cost bounded by the affected nodes only:
//
//   - the decaying activeness of every edge, via a single global decay
//     factor (so nothing is touched as time passes, only on activations);
//   - a similarity function combining structural cohesiveness (triangle
//     structure, active neighbor sets, local reinforcement) and activeness;
//   - a hierarchy of randomized Voronoi partitions ("pyramids") over the
//     shortest-distance metric induced by the reciprocal similarity, which
//     answers clustering queries — global, local, zoom-in and zoom-out —
//     in time proportional to the result, not the graph.
//
// # Quick start
//
//	net, err := anc.NewNetwork(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}, anc.DefaultConfig())
//	...
//	net.Activate(0, 1, 1.0)                // interaction on edge (0,1) at t=1
//	clusters := net.Clusters(net.SqrtLevel()) // ≈ √n clusters
//	mine := net.ClusterOf(0, net.SqrtLevel())
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of every table and
// figure in the paper.
package anc

import (
	"fmt"
	"io"
	"math"

	"anc/internal/analytics"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/pyramid"
	"anc/internal/similarity"
)

// Method selects the maintenance policy of a Network.
type Method = core.Method

// Maintenance policies (Section VI of the paper).
const (
	// ANCO is fully online: every activation triggers a bounded index
	// update; no local reinforcement after initialization. Fastest.
	ANCO = core.ANCO
	// ANCOR is online with a local-reinforcement pass at fixed time
	// intervals: slightly slower, better cluster quality over time.
	ANCOR = core.ANCOR
	// ANCF is offline: activations are buffered and Snapshot() recomputes
	// reinforcement and rebuilds the index. Best quality, slowest.
	ANCF = core.ANCF
)

// Config bundles every tunable of the system with the paper's defaults.
type Config struct {
	// Method is the maintenance policy: ANCO (default), ANCOR or ANCF.
	Method Method
	// Lambda is the exponential decay factor λ of edge activeness.
	// Default 0.1.
	Lambda float64
	// Rep is the number of local-reinforcement initialization rounds.
	// Default 7; 0 disables structural bootstrapping.
	Rep int
	// ReinforceInterval is the ANCOR reinforcement period (time units).
	// Default 5.
	ReinforceInterval float64
	// Epsilon is the active-similarity threshold ε for active neighbor
	// sets. Default 0.4.
	Epsilon float64
	// Mu is the core-node threshold μ. Default 4.
	Mu int
	// K is the number of pyramids in the index. Default 4.
	K int
	// Theta is the voting support threshold θ. Default 0.7.
	Theta float64
	// Seed makes pyramid seed selection reproducible. Default 1.
	Seed int64
	// Parallel repairs the K·⌈log₂ n⌉ partitions concurrently on live
	// updates, on a worker pool the network keeps until Close. Off by
	// default: a pooled repair costs concurrent readers latency. Building
	// the index (NewNetwork, Load, Recover, a follower's Restore) uses
	// every core whatever Parallel says, since nothing reads it yet.
	Parallel bool
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{
		Method:            ANCO,
		Lambda:            0.1,
		Rep:               7,
		ReinforceInterval: 5,
		Epsilon:           0.4,
		Mu:                4,
		K:                 4,
		Theta:             0.7,
		Seed:              1,
	}
}

func (c Config) toOptions() core.Options {
	sim := similarity.DefaultConfig()
	sim.Epsilon = c.Epsilon
	sim.Mu = c.Mu
	return core.Options{
		Method:            c.Method,
		Lambda:            c.Lambda,
		Rep:               c.Rep,
		ReinforceInterval: c.ReinforceInterval,
		Similarity:        sim,
		Pyramid:           pyramid.Config{K: c.K, Theta: c.Theta, Parallel: c.Parallel},
		Seed:              c.Seed,
	}
}

// Network is an indexed activation network ready for activations and
// clustering queries. It is not safe for concurrent use; wrap with a mutex
// if queried from multiple goroutines.
type Network struct {
	inner *core.Network
}

// NewNetwork builds a network over n nodes (IDs 0..n-1) and the given
// undirected edges. Self-loops and out-of-range endpoints are rejected;
// duplicate edges are merged.
func NewNetwork(n int, edges [][2]int, cfg Config) (*Network, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, err
		}
	}
	return FromGraph(b.Build(), cfg)
}

// LoadEdgeList builds a network from a whitespace-separated edge list
// ("u v" per line, # comments). Arbitrary node IDs in the input are
// remapped to dense IDs; the returned map translates original to dense.
func LoadEdgeList(r io.Reader, cfg Config) (*Network, map[int64]int32, error) {
	g, ids, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, nil, err
	}
	net, err := FromGraph(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	return net, ids, nil
}

// FromGraph builds a network over an already-constructed relation graph.
// Most callers use NewNetwork or LoadEdgeList; FromGraph serves code that
// works with the internal graph package directly (benchmarks, generators).
func FromGraph(g *graph.Graph, cfg Config) (*Network, error) {
	inner, err := core.New(g, cfg.toOptions())
	if err != nil {
		return nil, err
	}
	return &Network{inner: inner}, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.inner.Graph().N() }

// M returns the number of relation-graph edges.
func (nw *Network) M() int { return nw.inner.Graph().M() }

// Levels returns the number of granularity levels, ⌈log₂ n⌉.
func (nw *Network) Levels() int { return nw.inner.Index().Levels() }

// SqrtLevel returns the granularity level with Θ(√n) clusters — the
// default reporting granularity of Problem 1.
func (nw *Network) SqrtLevel() int { return pyramid.SqrtLevel(nw.N()) }

// Now returns the network's current time (the largest activation timestamp
// seen).
func (nw *Network) Now() float64 { return nw.inner.Clock().Now() }

// Activate records an interaction along the existing edge (u, v) at time
// t.
//
// Ingest contract (the authoritative statement, relied on by every layer
// below): timestamps are finite — NaN and ±Inf are rejected — and
// non-decreasing across the lifetime of the network; t may equal Now() but
// never precede it. Violations, like activations on edges absent from the
// relation graph, return an error before any state is modified, so a bad
// record can never corrupt the anchored activeness or the index.
func (nw *Network) Activate(u, v int, t float64) error {
	return nw.inner.ActivatePair(graph.NodeID(u), graph.NodeID(v), t)
}

// Activation is one timestamped interaction along the existing edge (U, V),
// the unit of batched ingest.
type Activation struct {
	U, V int
	T    float64
}

// ActivateBatch records a batch of activations in one pass — the high-
// throughput ingest path. The whole batch is validated up front against
// the Activate contract (existing edges, finite non-decreasing timestamps
// starting no earlier than Now()); an invalid batch is rejected as a unit
// with no state modified. The batch path advances the decay clock once per
// distinct timestamp and coalesces repeated activations of the same edge
// into one index update; results are identical, byte for byte in Save, to
// the equivalent sequence of Activate calls — an Activate is a one-element
// batch — for every method (TestStateIsAFunctionOfTheStream).
func (nw *Network) ActivateBatch(batch []Activation) error {
	return nw.ActivateBatchTraced(batch, trace.SpanHandle{})
}

// ActivateBatchTraced is ActivateBatch under an in-flight request span:
// the core pipeline records its pyramid repair and invalidation stages as
// children of sp. A zero handle degrades to plain ActivateBatch.
func (nw *Network) ActivateBatchTraced(batch []Activation, sp trace.SpanHandle) error {
	acts := make([]core.Activation, len(batch))
	for i, a := range batch {
		e := nw.inner.Graph().FindEdge(graph.NodeID(a.U), graph.NodeID(a.V))
		if e == graph.None {
			return fmt.Errorf("anc: batch[%d]: no edge (%d, %d)", i, a.U, a.V)
		}
		acts[i] = core.Activation{Edge: e, T: a.T}
	}
	return nw.inner.ActivateBatchTraced(acts, sp)
}

// Close releases the index worker-pool goroutines when the network was
// built with Config.Parallel. The network stays queryable and ingestable
// afterwards (updates fall back to the serial path); Close exists so a
// retired parallel network leaks nothing.
func (nw *Network) Close() { nw.inner.Close() }

// Snapshot finalizes buffered work: under ANCF it applies the reinforcement
// rounds and rebuilds the index; under ANCOR it flushes the pending
// reinforcement pass; under ANCO it is a no-op. Call it before querying if
// exact method semantics at the current instant matter. A non-nil error
// means the reinforced weights left the finite range and the index was not
// rebuilt; the buffered activations stay pending.
func (nw *Network) Snapshot() error { return nw.inner.Snapshot() }

// Clusters reports all clusters at the given granularity level using power
// clustering (the paper's DirectedCluster). Level 1 is coarsest;
// Levels() is finest.
func (nw *Network) Clusters(level int) [][]int {
	return toInts(nw.inner.Clusters(clampLevel(level, nw.Levels())).Clusters)
}

// EvenClusters reports all clusters using even clustering (connected
// components of vote-surviving edges).
func (nw *Network) EvenClusters(level int) [][]int {
	return toInts(nw.inner.EvenClusters(clampLevel(level, nw.Levels())).Clusters)
}

// EnableClusterCache turns on the materialized clustering cache: Clusters
// and EvenClusters memoize their per-level results and serve repeats from
// an atomically swapped snapshot, invalidated only for levels whose edge
// set actually changed (a net vote-threshold crossing; see DESIGN.md §15).
// The first call pays the vote tracker's one-time O(K·L·m) initialization
// if Events has not already. Cached answers are byte-identical to a
// recompute. NewConcurrent, NewDurable and Recover enable it
// automatically.
func (nw *Network) EnableClusterCache() { nw.inner.EnableClusterCache() }

// CacheStats returns the clustering cache's cumulative hit, miss and
// invalidation totals; zeros when the cache was never enabled.
func (nw *Network) CacheStats() (hits, misses, invalidations uint64) {
	return nw.inner.ClusterCache().Stats()
}

// ClustersUncached is Clusters with a forced recompute, bypassing the
// materialized cache — the equivalence baseline for tests and the cache
// A/B benchmark. With the cache disabled it is identical to Clusters.
func (nw *Network) ClustersUncached(level int) [][]int {
	return toInts(nw.inner.ClustersUncached(clampLevel(level, nw.Levels())).Clusters)
}

// EvenClustersUncached is EvenClusters with a forced recompute, bypassing
// the cache.
func (nw *Network) EvenClustersUncached(level int) [][]int {
	return toInts(nw.inner.EvenClustersUncached(clampLevel(level, nw.Levels())).Clusters)
}

// validNode reports whether v names a node of the relation graph. Every
// query method validates IDs through it and degrades gracefully (empty
// cluster, +Inf distance, an event filter matching nothing) instead of
// panicking on out-of-range input — the same contract FindEdge gives the
// edge queries.
func (nw *Network) validNode(v int) bool { return v >= 0 && v < nw.N() }

// ClusterOf reports the cluster containing v at the given level, in time
// proportional to the result (Lemma 9 of the paper). An out-of-range v
// belongs to no cluster: the result is empty.
func (nw *Network) ClusterOf(v int, level int) []int {
	if !nw.validNode(v) {
		return []int{}
	}
	members := nw.inner.LocalCluster(graph.NodeID(v), clampLevel(level, nw.Levels()))
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = int(m)
	}
	return out
}

// SmallestClusterOf reports the smallest cluster containing v (the finest
// granularity), per Problem 1(2). Use View for subsequent zoom-outs.
func (nw *Network) SmallestClusterOf(v int) []int {
	return nw.ClusterOf(v, nw.Levels())
}

// Similarity returns the current (true, decayed) similarity of edge
// (u, v), or an error if no such edge exists.
func (nw *Network) Similarity(u, v int) (float64, error) {
	e := nw.inner.Graph().FindEdge(graph.NodeID(u), graph.NodeID(v))
	if e == graph.None {
		return 0, fmt.Errorf("anc: no edge (%d, %d)", u, v)
	}
	return nw.inner.Similarity().At(e), nil
}

// Activeness returns the current time-decayed activeness of edge (u, v).
func (nw *Network) Activeness(u, v int) (float64, error) {
	e := nw.inner.Graph().FindEdge(graph.NodeID(u), graph.NodeID(v))
	if e == graph.None {
		return 0, fmt.Errorf("anc: no edge (%d, %d)", u, v)
	}
	return nw.inner.Similarity().Activeness().At(e), nil
}

// EstimateDistance returns an upper-bound estimate of the current distance
// between u and v under the metric M_t (reciprocal-similarity shortest
// distance), answered from the index in O(K·log n) — the Das Sarma sketch
// query of the underlying oracle. +Inf means the index never co-locates
// the nodes (different connected components); out-of-range IDs are
// infinitely far from everything.
func (nw *Network) EstimateDistance(u, v int) float64 {
	if !nw.validNode(u) || !nw.validNode(v) {
		return math.Inf(1)
	}
	d := nw.inner.Index().EstimateDistance(graph.NodeID(u), graph.NodeID(v))
	// Stored distances are anchored; true distance = anchored / g.
	return d / nw.inner.Clock().G()
}

// EstimateAttraction returns a lower-bound estimate of the attraction
// strength 1/dist(u, v) of Section IV-C of the paper.
func (nw *Network) EstimateAttraction(u, v int) float64 {
	d := nw.EstimateDistance(u, v)
	if d == 0 {
		return math.Inf(1)
	}
	if math.IsInf(d, 1) {
		return 0
	}
	return 1 / d
}

// ClusterEvent reports a real-time change in a watched node's direct
// cluster connectivity: the edge to Other started (Joined) or stopped
// passing the voting threshold at Level, at network time Time.
type ClusterEvent struct {
	Node, Other int
	Level       int
	Joined      bool
	Time        float64
}

// Events reports the changes on a caller-chosen node set (the paper's
// Remarks feature): every vote flip recorded after the cursor since, as
// one ClusterEvent per endpoint in nodes, in flip order. It also returns
// the newest sequence number — the cursor for the next call — and missed,
// the number of flips after since that the bounded flip ring overwrote
// before this read (a caller that falls that far behind resyncs with
// ClusterOf). Out-of-range nodes match nothing. The read drains nothing,
// so re-reading a cursor gives the same answer. The first call turns vote
// tracking on (a one-time O(K·log n·m) build) and the ring records from
// then; the concurrent facades track from construction.
func (nw *Network) Events(since uint64, nodes []int) ([]ClusterEvent, uint64, uint64) {
	a, b, seq, missed := nw.inner.Flips(since)
	watched := make(map[graph.NodeID]bool, len(nodes))
	for _, v := range nodes {
		if nw.validNode(v) {
			watched[graph.NodeID(v)] = true
		}
	}
	if len(watched) == 0 {
		return nil, seq, missed
	}
	var out []ClusterEvent
	g := nw.inner.Graph()
	for _, flips := range [2][]core.Flip{a, b} {
		for _, f := range flips {
			u, v := g.Endpoints(f.Edge)
			for _, p := range [2][2]graph.NodeID{{u, v}, {v, u}} {
				if watched[p[0]] {
					out = append(out, ClusterEvent{Node: int(p[0]), Other: int(p[1]), Level: int(f.Level), Joined: f.Pass, Time: f.Time})
				}
			}
		}
	}
	return out, seq, missed
}

// Instrument attaches the network's observability counters and timing
// histograms to reg under the anc_core_* and anc_pyramid_* families (see
// DESIGN.md §12). A nil registry is a no-op and the default: an
// uninstrumented network pays one predictable nil-check branch per
// observation site and never reads the wall clock. Call Instrument before
// the network sees concurrent traffic — attachment itself is not
// synchronized, only the attached handles are. Instrument is idempotent:
// re-instrumenting against the same registry reuses the registered
// families.
func (nw *Network) Instrument(reg *obs.Registry) { nw.inner.Instrument(reg) }

// RankEntry is one node of a TieRank top-k listing.
type RankEntry struct {
	Node  int
	Score float64
}

// TieRankResult is one TieRank query answer: the top-k nodes globally
// and, when a granularity level was requested, the top-k nodes of every
// cluster at that level.
type TieRankResult struct {
	// Global is the network-wide top-k: score descending, node ID
	// ascending on ties.
	Global []RankEntry
	// Level is the clamped granularity level the per-cluster listing was
	// computed at, or -1 when only the global ranking was requested.
	Level int
	// Clusters holds each cluster's top-k in cluster-ID order; nil when
	// Level is -1.
	Clusters [][]RankEntry
	// Iters and Converged describe the power iteration that produced the
	// scores (see internal/analytics).
	Iters     int
	Converged bool
	// Now is the network time the scores were computed at. They stay
	// exact until the next ingest — uniform decay cancels under
	// normalization — so Now identifies the state, not an expiry.
	Now float64
}

// EvolutionEventType classifies a cluster-evolution event.
type EvolutionEventType uint8

// Evolution event kinds, in the order the diff emits them for one
// transition (see DESIGN.md §16).
const (
	EvolutionBirth  = EvolutionEventType(analytics.EventBirth)
	EvolutionDeath  = EvolutionEventType(analytics.EventDeath)
	EvolutionSplit  = EvolutionEventType(analytics.EventSplit)
	EvolutionMerge  = EvolutionEventType(analytics.EventMerge)
	EvolutionGrow   = EvolutionEventType(analytics.EventGrow)
	EvolutionShrink = EvolutionEventType(analytics.EventShrink)
)

// String names the event type: "birth", "death", "split", "merge",
// "grow" or "shrink".
func (t EvolutionEventType) String() string { return analytics.EventType(t).String() }

// EvolutionEvent is one typed change in the tracked clustering between
// successive pyramid repairs.
type EvolutionEvent struct {
	// Seq is the event's 1-based position in the tracker's lifetime
	// stream — the cursor for Evolution(since).
	Seq  uint64
	Type EvolutionEventType
	// Level is the tracked granularity level (the Θ(√n) level).
	Level int
	// Node identifies the cluster by its smallest member ID — stable
	// across repairs for surviving clusters.
	Node int
	// Size and PrevSize are the event's cardinalities; their meaning is
	// per-type (fragment count for a split, source count for a merge,
	// member counts for grow/shrink — see internal/analytics).
	Size, PrevSize int
	// Time is the network time of the transition.
	Time float64
}

// EnableAnalytics turns on the live analytics layer: the TieRank
// snapshot cache (probed lock-free by the concurrent facades) and the
// cluster-evolution tracker diffing the Θ(√n)-level clustering between
// pyramid repairs. Idempotent; the first call pays the vote tracker's
// one-time initialization if Events or EnableClusterCache has not
// already. NewConcurrent, NewDurable and Recover enable it
// automatically.
func (nw *Network) EnableAnalytics() { nw.inner.EnableAnalytics() }

// RankStats returns the TieRank snapshot cache's cumulative hit, miss
// and invalidation totals — the analytics twin of CacheStats. Lock-free;
// all zero until EnableAnalytics.
func (nw *Network) RankStats() (hits, misses, invalidations uint64) {
	return nw.inner.RankCache().Stats()
}

// TieRank computes eigenvector centrality over the current decayed
// weights (see DESIGN.md §16) and returns the top-k nodes globally and,
// for level >= 0, per cluster at that (clamped) level; level -1 skips
// the per-cluster listing. k is clamped to the node count. Served from
// the analytics snapshot cache when one is valid; works without
// EnableAnalytics, just recomputing every call.
func (nw *Network) TieRank(level, k int) TieRankResult {
	r := nw.inner.TieRank()
	var cl *cluster.Clustering
	if level >= 0 {
		level = clampLevel(level, nw.Levels())
		cl = nw.inner.Clusters(level)
	} else {
		level = -1
	}
	return tieRankResult(r, cl, level, k)
}

func tieRankResult(r *analytics.Rank, cl *cluster.Clustering, level, k int) TieRankResult {
	res := TieRankResult{
		Global:    toRankEntries(analytics.TopK(r.Scores, k)),
		Level:     level,
		Iters:     r.Iters,
		Converged: r.Converged,
		Now:       r.Now,
	}
	if cl != nil {
		groups := analytics.TopKGroups(r.Scores, cl, k)
		res.Clusters = make([][]RankEntry, len(groups))
		for i, g := range groups {
			res.Clusters[i] = toRankEntries(g)
		}
	}
	return res
}

func toRankEntries(s []analytics.NodeScore) []RankEntry {
	out := make([]RankEntry, len(s))
	for i, e := range s {
		out[i] = RankEntry{Node: int(e.Node), Score: e.Score}
	}
	return out
}

// Evolution returns the buffered cluster-evolution events with sequence
// numbers after since (pass 0 for everything buffered), plus the newest
// sequence number — the cursor for the next call — and the cumulative
// count of events overwritten before being read. Non-draining and
// idempotent: re-reading the same cursor returns the same events. Empty
// until EnableAnalytics.
func (nw *Network) Evolution(since uint64) ([]EvolutionEvent, uint64, uint64) {
	evs, seq, dropped := nw.inner.EvolutionEvents(since)
	out := make([]EvolutionEvent, len(evs))
	for i, e := range evs {
		out[i] = EvolutionEvent{
			Seq: e.Seq, Type: EvolutionEventType(e.Type), Level: int(e.Level),
			Node: int(e.Node), Size: int(e.Size), PrevSize: int(e.PrevSize), Time: e.Time,
		}
	}
	return out, seq, dropped
}

// EvolutionDrops returns the cumulative number of evolution events
// overwritten in the tracker's ring before being read, never reset by
// reads. Zero until EnableAnalytics.
func (nw *Network) EvolutionDrops() uint64 { return nw.inner.EvolutionDrops() }

// Save serializes the network to w: the relation graph, configuration,
// decayed similarity/activeness state with its clock, pending
// reinforcement and index seeds, followed by a version+CRC32C trailer so
// Load detects corruption instead of decoding it. Save only reads: it
// flushes nothing, so saving never changes what the network does next.
// Load reconstructs a network with the same future (identical clusterings
// and, after the same activations, identical Save bytes; the shortest-path
// forests are rebuilt deterministically).
func (nw *Network) Save(w io.Writer) error { return nw.inner.Save(w) }

// Load restores a network saved with Save. Torn, truncated or bit-flipped
// snapshots are rejected with an error (CRC and bounds checks), never
// decoded into a silently wrong network.
func Load(r io.Reader) (*Network, error) {
	inner, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Network{inner: inner}, nil
}

// View opens a zoomable navigator positioned at the Θ(√n) granularity.
type View struct {
	inner *cluster.View
	n     int
}

// View opens a navigator for repeated zoom-in/zoom-out queries.
func (nw *Network) View() *View { return &View{inner: nw.inner.View(), n: nw.N()} }

// Level reports the navigator's current granularity level.
func (v *View) Level() int { return v.inner.Level() }

// ZoomIn moves one level finer; false at the finest level.
func (v *View) ZoomIn() bool { return v.inner.ZoomIn() }

// ZoomOut moves one level coarser; false at the coarsest level.
func (v *View) ZoomOut() bool { return v.inner.ZoomOut() }

// Clusters reports all clusters at the current level.
func (v *View) Clusters() [][]int { return toInts(v.inner.Clusters().Clusters) }

// ClusterOf reports the cluster containing x at the current level; empty
// for out-of-range x.
func (v *View) ClusterOf(x int) []int {
	if x < 0 || x >= v.n {
		return []int{}
	}
	members := v.inner.ClusterOf(graph.NodeID(x))
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = int(m)
	}
	return out
}

func clampLevel(l, max int) int {
	if l < 1 {
		return 1
	}
	if l > max {
		return max
	}
	return l
}

// toInts converts member lists to the public []int form: one slab cut into
// three-index sub-slices, so a call allocates twice whatever the cluster
// count, and a caller's append to one cluster reallocates instead of
// writing into the next.
func toInts(cs [][]graph.NodeID) [][]int {
	total := 0
	for _, c := range cs {
		total += len(c)
	}
	slab := make([]int, 0, total)
	out := make([][]int, len(cs))
	for i, c := range cs {
		a := len(slab)
		for _, v := range c {
			slab = append(slab, int(v))
		}
		out[i] = slab[a:len(slab):len(slab)]
	}
	return out
}
