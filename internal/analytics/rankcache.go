// The TieRank snapshot cache. Same two-phase protocol as the
// materialized clustering cache (internal/cluster/cache): probes are a
// single lock-free atomic load, stores are first-store-wins CAS under
// the facade's shared lock, and invalidation happens only from the
// exclusive-writer context — here on *every* ingest, because any
// activation changes relative edge weights and therefore the
// eigenvector. Between ingests the cached Rank is exact: decay scales
// S_t uniformly and uniform scalars cancel under normalization (see the
// package comment), so unlike the clustering cache no vote-flip
// granularity is needed — the cache is one slot, valid or empty.

package analytics

import (
	"sync/atomic"

	"anc/internal/obs"
)

// RankCache holds at most one valid Rank snapshot. All methods are safe
// on a nil *RankCache (probes miss, stores and invalidations no-op), so
// layers need no "is analytics enabled" branch.
type RankCache struct {
	snap atomic.Pointer[Rank]

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	computeSecs   *obs.Histogram // nil until Instrument; nil-safe
}

// NewRankCache returns an empty cache.
func NewRankCache() *RankCache { return &RankCache{} }

// Get returns the cached Rank, if one is valid. The hit path is one
// atomic load and two predictable branches — no locks, no allocation.
// The returned Rank is shared and must not be mutated.
//
//anclint:hotpath
func (c *RankCache) Get() (*Rank, bool) {
	if c == nil {
		return nil, false
	}
	if r := c.snap.Load(); r != nil {
		c.hits.Add(1)
		return r, true
	}
	return nil, false
}

// Current reports whether r is still the published snapshot — a re-check
// after a second lock-free load, not a probe, so it counts no hit.
func (c *RankCache) Current(r *Rank) bool { return c != nil && c.snap.Load() == r }

// Store publishes a freshly computed Rank. The caller must hold at
// least the facade's shared lock (so no invalidation is concurrently in
// flight) and r must be computed from the current state; concurrent
// stores keep the first published entry — the inputs are identical, so
// the results are too. Counted as one miss: every store is the tail of
// a probe that found nothing.
func (c *RankCache) Store(r *Rank) {
	if c == nil || r == nil {
		return
	}
	c.misses.Add(1)
	c.snap.CompareAndSwap(nil, r)
}

// Invalidate drops the snapshot. Exclusive-writer context only — the
// ingest paths call it after every batch, because any activation moves
// relative weights. A no-op when the slot is already empty, so a batch
// that follows an un-probed period costs one load.
func (c *RankCache) Invalidate() {
	if c == nil {
		return
	}
	if c.snap.Load() == nil {
		return
	}
	c.snap.Store(nil)
	c.invalidations.Add(1)
}

// Stats returns the cumulative hit, miss and invalidation totals.
func (c *RankCache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

// ComputeTimer returns a running timer against the rank-compute
// histogram (a zero-cost no-op before Instrument). The compute path
// brackets ComputeRank with it.
func (c *RankCache) ComputeTimer() obs.Timer {
	if c == nil {
		return obs.Timer{}
	}
	return c.computeSecs.Start()
}

// Instrument exposes the cache under the anc_analytics_rank_* families:
// hit/miss/invalidation totals sampled from the always-on atomics and a
// histogram of full TieRank computation latency. Nil receiver or
// registry is a no-op; idempotent.
func (c *RankCache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("anc_analytics_rank_hits_total",
		"TieRank queries served lock-free from the cached eigenvector",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("anc_analytics_rank_misses_total",
		"TieRank queries that ran the power iteration and stored the result",
		func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("anc_analytics_rank_invalidations_total",
		"cached TieRank snapshots dropped by ingest",
		func() float64 { return float64(c.invalidations.Load()) })
	c.computeSecs = reg.Histogram("anc_analytics_rank_compute_seconds",
		"latency of a full TieRank power iteration", nil)
}
