package anc

import (
	"sync"

	"anc/internal/analytics"
	clustercache "anc/internal/cluster/cache"
)

// lockedNetwork is the lock layer both concurrent facades embed: a Network
// behind a readers–writer lock, plus the probe-before-lock policy for the
// two snapshot caches. It is the one declaration of every read op —
// ConcurrentNetwork adds in-memory ingest to it, DurableNetwork adds a log.
//
// It deliberately carries no ingest method. A write promoted from here
// onto DurableNetwork would bypass the WAL, so Activate, ActivateBatch and
// Close live on each facade and nowhere else.
type lockedNetwork struct {
	mu  sync.RWMutex
	net *Network
	// acts counts the activations applied through the embedding facade
	// (Stats().Activations); its ingest methods bump it under mu.
	acts uint64
	// cache is the materialized clustering cache, probed before the lock:
	// hits are served from an atomically swapped immutable snapshot, so
	// repeat queries never queue behind ingest. Invalidations fire inside
	// UpdateEdges, and the tracked level's swap at the end of the same
	// ingest call — always under the exclusive lock — so a hit can never
	// observe state newer than the last write that completed before the
	// probe (see DESIGN.md §15).
	cache *clustercache.Cache
	// rank is the TieRank snapshot cache, probed before the lock like
	// cache: a valid snapshot serves the whole query lock-free, and it is
	// invalidated on every ingest — always under the exclusive lock — so
	// a hit can never observe stale relative weights (DESIGN.md §16).
	rank *analytics.RankCache
}

// wrap puts net behind the lock layer. The first call, before the facade
// is shared, enables net's clustering cache and analytics layer and keeps
// their probe handles, so hits bypass the lock. A later one (a durable
// reset, under the exclusive lock) hands net those same instances and the
// evolution tracker: the fields are written once, so lock-free probes
// never race a write, the caches' counters stay monotone, and evolution
// sequence numbers keep counting.
func (l *lockedNetwork) wrap(net *Network) {
	if l.net == nil {
		l.cache, l.rank = net.inner.EnableClusterCache(), net.inner.EnableAnalytics()
	} else {
		net.inner.AdoptCaches(l.net.inner)
	}
	l.net = net
}

// N returns the node count.
func (l *lockedNetwork) N() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.N()
}

// M returns the relation-graph edge count.
func (l *lockedNetwork) M() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.M()
}

// Levels returns the number of granularity levels.
func (l *lockedNetwork) Levels() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Levels()
}

// SqrtLevel returns the Θ(√n) granularity level.
func (l *lockedNetwork) SqrtLevel() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.SqrtLevel()
}

// Now returns the current network time — the largest activation timestamp
// seen (shared lock).
func (l *lockedNetwork) Now() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Now()
}

// Snapshot finalizes buffered work (exclusive lock). On a DurableNetwork
// note that under ANCF this mutates state outside the log; only the
// activation history itself is replayed on recovery.
func (l *lockedNetwork) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.net.Snapshot()
}

// Clusters reports all clusters at a level. A cache hit is served
// lock-free from the materialized snapshot; only a miss takes the shared
// lock to recompute (and store for the next caller).
//
//anclint:ignore lockdiscipline cache probe is lock-free by design; the snapshot is internally synchronized and the miss path locks
func (l *lockedNetwork) Clusters(level int) [][]int {
	if cl, ok := l.cache.Power(level); ok {
		return toInts(cl.Clusters)
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Clusters(level)
}

// EvenClusters reports all even-clustering clusters at a level. Like
// Clusters, a cache hit bypasses the lock entirely.
//
//anclint:ignore lockdiscipline cache probe is lock-free by design; the snapshot is internally synchronized and the miss path locks
func (l *lockedNetwork) EvenClusters(level int) [][]int {
	if cl, ok := l.cache.Even(level); ok {
		return toInts(cl.Clusters)
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.EvenClusters(level)
}

// ClustersUncached is Clusters with a forced recompute under the shared
// lock, bypassing the materialized cache — the equivalence baseline for
// tests and the cache A/B benchmark.
func (l *lockedNetwork) ClustersUncached(level int) [][]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.ClustersUncached(level)
}

// EvenClustersUncached is EvenClusters with a forced recompute under the
// shared lock, bypassing the cache.
func (l *lockedNetwork) EvenClustersUncached(level int) [][]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.EvenClustersUncached(level)
}

// CacheStats returns the clustering cache's cumulative hit, miss and
// invalidation totals. Lock-free: the counters are atomics, so metric
// scrapes never queue behind ingest.
func (l *lockedNetwork) CacheStats() (hits, misses, invalidations uint64) {
	return l.cache.Stats()
}

// RankStats returns the TieRank snapshot cache's cumulative hit, miss
// and invalidation totals — the analytics twin of CacheStats. Lock-free.
func (l *lockedNetwork) RankStats() (hits, misses, invalidations uint64) {
	return l.rank.Stats()
}

// TieRank answers a centrality query (see Network.TieRank). When a
// cached rank snapshot is valid the query is served without the lock: a
// global-only query (level -1) needs nothing else, and a per-cluster
// query additionally probes the materialized clustering snapshot. The
// two loads must see the same write: every write drops the rank before
// it publishes a clustering, so a rank still current after the
// clustering probe was current when the clustering was loaded. A miss,
// or a rank replaced in between, takes the shared lock to compute (and
// store for the next caller).
//
//anclint:ignore lockdiscipline cache probe is lock-free by design; the snapshots are internally synchronized and the miss path locks
func (l *lockedNetwork) TieRank(level, k int) TieRankResult {
	if r, ok := l.rank.Get(); ok {
		if level < 0 {
			return tieRankResult(r, nil, -1, k)
		}
		if cl, ok := l.cache.Power(level); ok && l.rank.Current(r) {
			return tieRankResult(r, cl, level, k)
		}
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.TieRank(level, k)
}

// Evolution reads the buffered cluster-evolution events after the given
// cursor (shared lock: the read is non-draining, so concurrent readers
// are safe; only ingest appends to the ring).
func (l *lockedNetwork) Evolution(since uint64) ([]EvolutionEvent, uint64, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Evolution(since)
}

// ClusterOf reports the local cluster of v (shared lock).
func (l *lockedNetwork) ClusterOf(v, level int) []int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.ClusterOf(v, level)
}

// SmallestClusterOf reports the finest-granularity cluster containing v
// (shared lock).
func (l *lockedNetwork) SmallestClusterOf(v int) []int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.SmallestClusterOf(v)
}

// EstimateDistance answers a sketch distance query (shared lock).
func (l *lockedNetwork) EstimateDistance(u, v int) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.EstimateDistance(u, v)
}

// EstimateAttraction answers an attraction-strength query (shared lock).
func (l *lockedNetwork) EstimateAttraction(u, v int) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.EstimateAttraction(u, v)
}

// Similarity reads the current similarity of an edge (shared lock).
func (l *lockedNetwork) Similarity(u, v int) (float64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Similarity(u, v)
}

// Activeness reads the current time-decayed activeness of an edge (shared
// lock).
func (l *lockedNetwork) Activeness(u, v int) (float64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Activeness(u, v)
}

// Events reads the cluster-change feed after the cursor since, filtered
// to nodes (shared lock: the flip ring is a cursor read, and wrap turned
// vote tracking on, so nothing here writes).
func (l *lockedNetwork) Events(since uint64, nodes []int) ([]ClusterEvent, uint64, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.net.Events(since, nodes)
}

// Stats returns an aggregate snapshot of the network's shape and ingest
// progress in one shared-lock acquisition — the health-endpoint read.
func (l *lockedNetwork) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	hits, misses, inv := l.cache.Stats()
	return Stats{
		Nodes:              l.net.N(),
		Edges:              l.net.M(),
		Levels:             l.net.Levels(),
		SqrtLevel:          l.net.SqrtLevel(),
		Activations:        l.acts,
		Now:                l.net.Now(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheInvalidations: inv,
		EvolutionDrops:     l.net.EvolutionDrops(),
	}
}
