package cache

import (
	"sync"
	"testing"

	"anc/internal/cluster"
	"anc/internal/graph"
	"anc/internal/obs"
)

func mkClustering(label int32) *cluster.Clustering {
	return &cluster.Clustering{
		Labels:   []int32{label},
		Clusters: [][]graph.NodeID{{0}},
	}
}

func TestCacheStoreProbeInvalidate(t *testing.T) {
	c := New(3)
	if _, ok := c.Power(2); ok {
		t.Fatal("empty cache reported a hit")
	}
	p2 := mkClustering(2)
	c.StorePower(2, p2)
	if got, ok := c.Power(2); !ok || got != p2 {
		t.Fatalf("Power(2) = (%v, %v), want stored entry", got, ok)
	}
	if _, ok := c.Even(2); ok {
		t.Fatal("storing power must not materialize even")
	}
	e2 := mkClustering(-2)
	c.StoreEven(2, e2)
	if got, ok := c.Even(2); !ok || got != e2 {
		t.Fatal("Even(2) missed after StoreEven")
	}

	c.Invalidate(2)
	if _, ok := c.Power(2); ok {
		t.Fatal("Power(2) survived Invalidate(2)")
	}
	if _, ok := c.Even(2); ok {
		t.Fatal("Even(2) survived Invalidate(2)")
	}

	c.StorePower(1, mkClustering(1))
	c.StorePower(3, mkClustering(3))
	c.Invalidate(1)
	if _, ok := c.Power(3); !ok {
		t.Fatal("Invalidate(1) dropped level 3")
	}
	c.InvalidateAll()
	if _, ok := c.Power(3); ok {
		t.Fatal("Power(3) survived InvalidateAll")
	}
}

// TestCacheDropsReturnWhatTheyRemoved: Invalidate and DropEven hand the
// removed entries back — the baselines a miss repairs from — and DropEven
// leaves the power entry serving and counts no invalidation.
func TestCacheDropsReturnWhatTheyRemoved(t *testing.T) {
	c := New(2)
	p, e := mkClustering(1), mkClustering(-1)
	c.StorePower(1, p)
	c.StoreEven(1, e)
	if got := c.DropEven(1); got != e {
		t.Fatalf("DropEven(1) = %v, want the even entry", got)
	}
	if got, ok := c.Power(1); !ok || got != p {
		t.Fatal("DropEven(1) dropped the power entry")
	}
	if _, ok := c.Even(1); ok || c.DropEven(1) != nil {
		t.Fatal("the even entry survived DropEven(1)")
	}
	if gotP, gotE := c.Invalidate(1); gotP != p || gotE != nil {
		t.Fatalf("Invalidate(1) = (%v, %v), want (power entry, nil)", gotP, gotE)
	}
	if gotP, gotE := c.Invalidate(1); gotP != nil || gotE != nil {
		t.Fatal("Invalidate of an empty level returned entries")
	}
	if _, _, inv := c.Stats(); inv != 1 {
		t.Fatalf("%d invalidations counted, want 1 (DropEven counts none)", inv)
	}
}

func TestCacheClampMirrorsFacade(t *testing.T) {
	c := New(3)
	top := mkClustering(3)
	c.StorePower(99, top) // clamped to level 3
	if got, ok := c.Power(3); !ok || got != top {
		t.Fatal("out-of-range store did not clamp to the top level")
	}
	if got, ok := c.Power(42); !ok || got != top {
		t.Fatal("out-of-range probe did not clamp to the top level")
	}
	bottom := mkClustering(1)
	c.StoreEven(-5, bottom)
	if got, ok := c.Even(0); !ok || got != bottom {
		t.Fatal("below-range probe did not clamp to level 1")
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache
	if _, ok := c.Power(1); ok {
		t.Fatal("nil cache hit")
	}
	if _, ok := c.Even(1); ok {
		t.Fatal("nil cache hit")
	}
	c.StorePower(1, mkClustering(0))
	c.StoreEven(1, mkClustering(0))
	c.Invalidate(1)
	c.DropEven(1)
	c.InvalidateAll()
	c.Instrument(obs.NewRegistry())
	if h, m, i := c.Stats(); h+m+i != 0 {
		t.Fatal("nil cache reported counts")
	}
}

func TestCacheCountsAndMetrics(t *testing.T) {
	c := New(2)
	reg := obs.NewRegistry()
	c.Instrument(reg)

	c.Power(1)                       // probe miss: not counted (the store is)
	c.StorePower(1, mkClustering(1)) // miss++
	c.Power(1)                       // hit++
	c.Power(1)                       // hit++
	c.Invalidate(1)                  // invalidation++
	c.Invalidate(1)                  // empty level: no count
	c.InvalidateAll()                // nothing materialized: no count

	hits, misses, inv := c.Stats()
	if hits != 2 || misses != 1 || inv != 1 {
		t.Fatalf("Stats() = (%d, %d, %d), want (2, 1, 1)", hits, misses, inv)
	}
	snap := reg.Snapshot()
	if snap["anc_cache_hits_total"] != 2 || snap["anc_cache_misses_total"] != 1 ||
		snap["anc_cache_invalidations_total"] != 1 {
		t.Fatalf("obs snapshot disagrees with Stats: %v", snap)
	}
	if snap["anc_cache_swap_seconds_count"] != 1 {
		t.Fatalf("swap histogram observed %v stores, want 1", snap["anc_cache_swap_seconds_count"])
	}
}

// TestCacheFirstStoreWins: concurrent stores of the same level (readers
// racing to publish an identical recompute) keep exactly one entry and
// never deadlock or lose other levels.
func TestCacheFirstStoreWins(t *testing.T) {
	c := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for l := 1; l <= 4; l++ {
				c.StorePower(l, mkClustering(int32(l)))
				c.StoreEven(l, mkClustering(int32(-l)))
			}
		}(i)
	}
	wg.Wait()
	for l := 1; l <= 4; l++ {
		p, ok := c.Power(l)
		if !ok || p.Labels[0] != int32(l) {
			t.Fatalf("level %d power entry lost or wrong after racing stores", l)
		}
		e, ok := c.Even(l)
		if !ok || e.Labels[0] != int32(-l) {
			t.Fatalf("level %d even entry lost or wrong after racing stores", l)
		}
	}
}
