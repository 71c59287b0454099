// Package cache materializes per-level clustering results so repeated
// Clusters/EvenClusters queries are served lock-free from an immutable
// snapshot instead of re-running the voting function H_l over the whole
// pyramid under the backend read lock.
//
// # Protocol
//
// The cache is one atomic.Pointer to an immutable snapshot holding, per
// granularity level, the materialized power and even Clustering (nil when
// not yet computed or invalidated). The operations:
//
//   - Hit (Power/Even): a single atomic load plus a slice index. No locks,
//     no allocation — annotated //anclint:hotpath and gated by the
//     AllocsPerRun tests. Safe from any goroutine at any time.
//   - Store (StorePower/StoreEven): copy-on-write — clone the level
//     slices, set the new entry, publish with CompareAndSwap, retrying on
//     contention with concurrent stores. Callers hold the facade's shared
//     (read) lock, so stores only race other stores, never invalidation.
//   - Invalidate/DropEven/InvalidateAll: copy-on-write removal. Called
//     only from exclusive-writer context — the vote tracker's OnFlip
//     listener fires inside UpdateEdges, which runs under the facade's
//     write lock — so an invalidation never races a store. That lock
//     discipline is what makes the two-phase protocol sound without
//     generation counters: a store publishing a result computed from
//     pre-write state cannot clobber an invalidation that the write just
//     issued. Invalidate and DropEven return what they removed: the
//     caller keeps it as the baseline its next miss repairs from instead
//     of recomputing (core.Network; DESIGN.md §15).
//   - Replace (ReplacePower): copy-on-write swap of one level's power
//     entry for the clustering at the current index state. Exclusive-writer
//     context only, like invalidation. It is for a level the writer brings
//     up to date anyway before it releases the lock (the evolution
//     tracker's, repaired along the call's flips): that level's power
//     entry is not invalidated on flip — only its even entry is dropped,
//     with DropEven — so lock-free probes keep hitting the pre-write
//     snapshot until the swap instead of missing and queueing behind the
//     writer.
//
// # Correctness contract
//
// A clustering at level l is a pure function of the static graph (adjacency
// and DegreeRank) and the per-edge pass states Votes(e, l) ≥ ⌈θ·K⌉. The
// VoteTracker reports exactly the net pass-state crossings per update cycle
// (coalesced), so "no flip at level l" implies the cached clustering at l
// is byte-identical to a recompute. Rescales (OnRescale) change no votes
// and need no invalidation; the ANCF full reconstruction fires no flips and
// must be followed by InvalidateAll.
//
// Readers that probe the cache without the lock may observe the snapshot
// from just before a concurrent write commits; that is the same answer a
// query linearized immediately before the write would get. A level that is
// replaced instead of invalidated stretches that window from "until the
// flip" to "until the writer's swap", both inside the same exclusive
// section, so the linearization point is the same.
package cache

import (
	"sync/atomic"

	"anc/internal/cluster"
	"anc/internal/obs"
)

// snapshot is an immutable per-level view of materialized clusterings.
// Entries and the slices themselves are never mutated after publication;
// updates clone and swap.
type snapshot struct {
	power []*cluster.Clustering // [level-1]; nil = not materialized
	even  []*cluster.Clustering
}

func (s *snapshot) clone() *snapshot {
	nw := &snapshot{
		power: make([]*cluster.Clustering, len(s.power)),
		even:  make([]*cluster.Clustering, len(s.even)),
	}
	copy(nw.power, s.power)
	copy(nw.even, s.even)
	return nw
}

// Cache serves materialized per-level clusterings lock-free. All methods
// are safe on a nil *Cache (probes miss, stores and invalidations no-op),
// so callers need no "is the cache enabled" branch. The hit/miss/
// invalidation totals are always-on atomics; Instrument additionally
// exposes them as anc_cache_* metric families.
type Cache struct {
	levels int
	snap   atomic.Pointer[snapshot]

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	swapSeconds   *obs.Histogram // nil until Instrument; nil-safe
}

// New returns an empty cache over the given number of granularity levels.
func New(levels int) *Cache {
	if levels < 1 {
		levels = 1
	}
	c := &Cache{levels: levels}
	c.snap.Store(&snapshot{
		power: make([]*cluster.Clustering, levels),
		even:  make([]*cluster.Clustering, levels),
	})
	return c
}

// clamp mirrors the facade's level clamping so a lock-free probe and the
// locked recompute path agree on which level an out-of-range query means.
func (c *Cache) clamp(level int) int {
	if level < 1 {
		return 1
	}
	if level > c.levels {
		return c.levels
	}
	return level
}

// Power returns the materialized power clustering at level, if valid. The
// hit path is one atomic load and two predictable branches — no locks, no
// allocation. The returned Clustering is shared and must not be mutated.
//
//anclint:hotpath
func (c *Cache) Power(level int) (*cluster.Clustering, bool) {
	if c == nil {
		return nil, false
	}
	level = c.clamp(level)
	if cl := c.snap.Load().power[level-1]; cl != nil {
		c.hits.Add(1)
		return cl, true
	}
	return nil, false
}

// Even returns the materialized even clustering at level, if valid.
//
//anclint:hotpath
func (c *Cache) Even(level int) (*cluster.Clustering, bool) {
	if c == nil {
		return nil, false
	}
	level = c.clamp(level)
	if cl := c.snap.Load().even[level-1]; cl != nil {
		c.hits.Add(1)
		return cl, true
	}
	return nil, false
}

// StorePower publishes a freshly recomputed power clustering for level.
// The caller must hold at least the facade's shared lock (so no
// invalidation is concurrently in flight) and cl must be the recompute at
// the current index state; concurrent stores of the same level keep the
// first published entry (the inputs are identical, so the results are
// too). Counted as one miss: every store is the tail of a probe that found
// no entry.
func (c *Cache) StorePower(level int, cl *cluster.Clustering) {
	c.store(level, cl, false)
}

// StoreEven publishes a freshly recomputed even clustering for level,
// under the same contract as StorePower.
func (c *Cache) StoreEven(level int, cl *cluster.Clustering) {
	c.store(level, cl, true)
}

func (c *Cache) store(level int, cl *cluster.Clustering, even bool) {
	if c == nil || cl == nil {
		return
	}
	level = c.clamp(level)
	c.misses.Add(1)
	t := c.swapSeconds.Start()
	for {
		old := c.snap.Load()
		slot := old.power
		if even {
			slot = old.even
		}
		if slot[level-1] != nil {
			// A concurrent reader already published this level's result.
			break
		}
		nw := old.clone()
		if even {
			nw.even[level-1] = cl
		} else {
			nw.power[level-1] = cl
		}
		if c.snap.CompareAndSwap(old, nw) {
			break
		}
	}
	t.Stop()
}

// Invalidate drops both variants of one level — the vote tracker reported
// a net threshold crossing there, so the materialized results no longer
// match a recompute — and returns the entries it removed (nil where the
// level held none). Must be called from exclusive-writer context only
// (see the package comment); it is a no-op when the level holds nothing,
// so repeated flips at one level within a cycle swap once.
func (c *Cache) Invalidate(level int) (power, even *cluster.Clustering) {
	if c == nil {
		return nil, nil
	}
	level = c.clamp(level)
	for {
		old := c.snap.Load()
		power, even = old.power[level-1], old.even[level-1]
		if power == nil && even == nil {
			return nil, nil
		}
		nw := old.clone()
		nw.power[level-1] = nil
		nw.even[level-1] = nil
		if c.snap.CompareAndSwap(old, nw) {
			c.invalidations.Add(1)
			return power, even
		}
	}
}

// DropEven drops the even entry of a level whose power entry the writer
// replaces instead (ReplacePower) and returns it, nil if there was none.
// Exclusive-writer context only. Counted as neither hit, miss nor
// invalidation: the level keeps serving power hits throughout.
func (c *Cache) DropEven(level int) *cluster.Clustering {
	if c == nil {
		return nil
	}
	level = c.clamp(level)
	for {
		old := c.snap.Load()
		even := old.even[level-1]
		if even == nil {
			return nil
		}
		nw := old.clone()
		nw.even[level-1] = nil
		if c.snap.CompareAndSwap(old, nw) {
			return even
		}
	}
}

// ReplacePower swaps in cl, byte for byte the recompute at the current
// index state, as the power clustering of level — the writer-side
// publication for a level whose flips were not invalidated. Its even
// entry was dropped at the flip (DropEven).
// Exclusive-writer context only: no store or invalidation can be in flight,
// so one clone and one Store suffice. Counted as neither hit, miss nor
// invalidation: no probe failed and no reader will recompute.
func (c *Cache) ReplacePower(level int, cl *cluster.Clustering) {
	if c == nil || cl == nil {
		return
	}
	level = c.clamp(level)
	nw := c.snap.Load().clone()
	nw.power[level-1] = cl
	c.snap.Store(nw)
}

// InvalidateAll drops every level — the wholesale reset after an index
// reconstruction or snapshot restore, whose vote changes fire no flips.
// Exclusive-writer context only.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	dropped := uint64(0)
	old := c.snap.Load()
	for l := 0; l < c.levels; l++ {
		if old.power[l] != nil || old.even[l] != nil {
			dropped++
		}
	}
	c.snap.Store(&snapshot{
		power: make([]*cluster.Clustering, c.levels),
		even:  make([]*cluster.Clustering, c.levels),
	})
	c.invalidations.Add(dropped)
}

// Stats returns the cumulative hit, miss and invalidation totals. Always
// live (they do not require Instrument); zeros on a nil cache.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

// Instrument exposes the cache under the anc_cache_* families (DESIGN.md
// §12): hit/miss/invalidation totals sampled from the always-on atomics,
// and a histogram of snapshot-swap (store publication) latency. Nil cache
// or registry is a no-op; idempotent like every other Instrument.
func (c *Cache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("anc_cache_hits_total",
		"clustering queries served lock-free from the materialized cache",
		func() float64 { return float64(c.hits.Load()) })
	reg.CounterFunc("anc_cache_misses_total",
		"clustering queries that recomputed and stored their level",
		func() float64 { return float64(c.misses.Load()) })
	reg.CounterFunc("anc_cache_invalidations_total",
		"cache levels dropped on net vote-threshold crossings",
		func() float64 { return float64(c.invalidations.Load()) })
	c.swapSeconds = reg.Histogram("anc_cache_swap_seconds",
		"latency of publishing a recomputed clustering into the snapshot", nil)
}
