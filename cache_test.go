package anc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// seededCacheNetwork builds a deterministic random-graph network (ring
// plus chords, like determinism_test.go) big enough that clusterings are
// non-trivial at several levels.
func seededCacheNetwork(t testing.TB, seed int64, n int) (*Network, [][2]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int
	seen := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		e := [2]int{i, (i + 1) % n}
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		edges = append(edges, e)
		seen[e] = true
	}
	for len(edges) < 3*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	net, err := NewNetwork(n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, edges
}

// TestCacheSmoke is the make cache-smoke gate: with the cache on, every
// level's Clusters/EvenClusters must equal the forced recompute, repeat
// queries must be served from the cache, and the counters must account
// for exactly the queries made.
func TestCacheSmoke(t *testing.T) {
	net, edges := seededCacheNetwork(t, 11, 48)
	defer net.Close()
	net.EnableClusterCache()

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		e := edges[rng.Intn(len(edges))]
		if err := net.Activate(e[0], e[1], float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}

	for level := 1; level <= net.Levels(); level++ {
		want := canonClusters(net.ClustersUncached(level))
		if got := canonClusters(net.Clusters(level)); got != want { // miss + store
			t.Fatalf("Clusters(%d) diverges from recompute:\n got %s\nwant %s", level, got, want)
		}
		if got := canonClusters(net.Clusters(level)); got != want { // cache hit
			t.Fatalf("cached Clusters(%d) diverges from recompute", level)
		}
		wantEven := canonClusters(net.EvenClustersUncached(level))
		if got := canonClusters(net.EvenClusters(level)); got != wantEven {
			t.Fatalf("EvenClusters(%d) diverges from recompute:\n got %s\nwant %s", level, got, wantEven)
		}
		if got := canonClusters(net.EvenClusters(level)); got != wantEven {
			t.Fatalf("cached EvenClusters(%d) diverges from recompute", level)
		}
	}

	hits, misses, _ := net.CacheStats()
	wantEach := 2 * uint64(net.Levels()) // power + even, one miss then one hit per level
	if hits != wantEach || misses != wantEach {
		t.Fatalf("CacheStats = (%d hits, %d misses), want (%d, %d): hit rate must be 50%% for a miss-then-hit sweep",
			hits, misses, wantEach, wantEach)
	}
}

// TestCachedClusteringDeterminism interleaves ingest and queries at
// random points and asserts three-way agreement at every query: the
// cached network's Clusters, its forced recompute, and an
// identically-seeded twin with vote tracking off (whose cache was never
// enabled). Any stale cache entry — a missed invalidation — shows up as
// a divergence.
func TestCachedClusteringDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cached, edges := seededCacheNetwork(t, 40+seed, 48)
		plain, _ := seededCacheNetwork(t, 40+seed, 48)
		cached.EnableClusterCache()

		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		queries := 0
		for step := 0; step < 150; step++ {
			for j := 1 + rng.Intn(5); j > 0; j-- {
				e := edges[rng.Intn(len(edges))]
				now += 0.25
				if err := cached.Activate(e[0], e[1], now); err != nil {
					t.Fatal(err)
				}
				if err := plain.Activate(e[0], e[1], now); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(3) != 0 {
				continue
			}
			queries++
			level := 1 + rng.Intn(cached.Levels())
			a, b := canonClusters(cached.Clusters(level)), canonClusters(cached.ClustersUncached(level))
			c := canonClusters(plain.Clusters(level))
			if a != b || a != c {
				t.Fatalf("seed %d step %d: Clusters(%d) diverged\ncached    %s\nrecompute %s\nuntracked %s",
					seed, step, level, a, b, c)
			}
			ea, eb := canonClusters(cached.EvenClusters(level)), canonClusters(cached.EvenClustersUncached(level))
			ec := canonClusters(plain.EvenClusters(level))
			if ea != eb || ea != ec {
				t.Fatalf("seed %d step %d: EvenClusters(%d) diverged\ncached    %s\nrecompute %s\nuntracked %s",
					seed, step, level, ea, eb, ec)
			}
		}
		if queries == 0 {
			t.Fatalf("seed %d: interleaving made no queries", seed)
		}
		hits, misses, inv := cached.CacheStats()
		t.Logf("seed %d: %d query points, cache %d hits / %d misses / %d invalidations",
			seed, queries, hits, misses, inv)
		cached.Close()
		plain.Close()
	}
}

// TestCacheConcurrentSwapStress hammers the lock-free probe path from
// reader goroutines while a writer ingests batches that invalidate and
// repopulate the snapshot — the race -race must prove clean: atomic
// snapshot swaps against concurrent lock-free loads. A final sweep
// asserts the cache settled on the recompute answer.
func TestCacheConcurrentSwapStress(t *testing.T) {
	net, edges := seededCacheNetwork(t, 7, 48)
	c := NewConcurrent(net)
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			levels := c.Levels()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				level := 1 + rng.Intn(levels)
				switch i % 4 {
				case 0:
					c.Clusters(level)
				case 1:
					c.EvenClusters(level)
				case 2:
					c.ClustersUncached(level)
				case 3:
					c.CacheStats()
					c.Stats()
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	now := 0.0
	for i := 0; i < 60; i++ {
		batch := make([]Activation, 0, 16)
		for j := 0; j < 16; j++ {
			e := edges[rng.Intn(len(edges))]
			now++
			batch = append(batch, Activation{U: e[0], V: e[1], T: now})
		}
		if err := c.ActivateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for level := 1; level <= c.Levels(); level++ {
		if got, want := canonClusters(c.Clusters(level)), canonClusters(c.ClustersUncached(level)); got != want {
			t.Fatalf("after stress, Clusters(%d) diverges from recompute:\n got %s\nwant %s", level, got, want)
		}
		if got, want := canonClusters(c.EvenClusters(level)), canonClusters(c.EvenClustersUncached(level)); got != want {
			t.Fatalf("after stress, EvenClusters(%d) diverges from recompute", level)
		}
	}
}

// TestTrackedLevelSwappedNotDropped pins the publication rule of the
// evolution tracker's level (DESIGN.md §15, "replace"): a flip there does
// not invalidate — the writer recomputes the level before it releases the
// lock and swaps it in — so once the level has been filled, a lock-free
// probe never finds the slot empty, however hot the writer runs, and every
// snapshot it does find is a whole partition of [0, n). Two alternating hot
// edge sets with the clock jumping between batches keep the √n level
// flipping. Run under -race by make race.
func TestTrackedLevelSwappedNotDropped(t *testing.T) {
	net, edges := seededCacheNetwork(t, 13, 64)
	c := NewConcurrent(net)
	defer c.Close()
	n, level := c.N(), c.SqrtLevel()
	c.Clusters(level) // first fill
	first, ok := c.cache.Power(level)
	if !ok {
		t.Fatal("Clusters did not fill the tracked level")
	}

	var empty, broken, probes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make([]int, n)
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			probes.Add(1)
			cl, ok := c.cache.Power(level)
			if !ok {
				empty.Add(1)
				continue
			}
			members := 0
			for _, cluster := range cl.Clusters {
				for _, v := range cluster {
					if seen[v] == round {
						broken.Add(1)
					}
					seen[v] = round
					members++
				}
			}
			if members != n {
				broken.Add(1)
			}
		}
	}()

	swaps, last, now := 0, first, 0.0
	for i := 0; i < 300; i++ {
		hot := edges[(i%2)*12 : (i%2)*12+12]
		now += 3
		batch := make([]Activation, 0, 2*len(hot))
		for j := 0; j < 2*len(hot); j++ {
			e := hot[j%len(hot)]
			batch = append(batch, Activation{U: e[0], V: e[1], T: now})
		}
		if err := c.ActivateBatch(batch); err != nil {
			t.Fatal(err)
		}
		if cl, _ := c.cache.Power(level); cl != last {
			swaps, last = swaps+1, cl
		}
	}
	close(stop)
	wg.Wait()

	if swaps < 30 {
		t.Fatalf("the tracked level was republished %d times in 300 batches: the workload does not flip it", swaps)
	}
	if e, b := empty.Load(), broken.Load(); e != 0 || b != 0 {
		t.Fatalf("%d probes: %d found the tracked level empty, %d found a clustering that does not partition [0, %d)", probes.Load(), e, b, n)
	}
	if got, want := canonClusters(c.Clusters(level)), canonClusters(c.ClustersUncached(level)); got != want {
		t.Fatalf("after the writer stopped, Clusters(%d) diverges from recompute:\n got %s\nwant %s", level, got, want)
	}
	if got, want := canonClusters(c.EvenClusters(level)), canonClusters(c.EvenClustersUncached(level)); got != want {
		t.Fatalf("after the writer stopped, EvenClusters(%d) diverges from recompute", level)
	}
	if _, _, inv := c.CacheStats(); inv != 0 {
		t.Fatalf("%d invalidations with only the tracked level ever filled, want 0", inv)
	}
}
