package anc

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentNetworkRace exercises mixed readers and a writer; run with
// -race (the suite's default CI invocation) to verify the locking.
func TestConcurrentNetworkRace(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(net)
	var wg sync.WaitGroup
	// One ingest goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 300; i++ {
			if err := c.Activate(4, 5, float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Several query goroutines, covering every read-side wrapper.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Clusters(c.SqrtLevel())
				c.EvenClusters(c.SqrtLevel())
				c.ClusterOf(q, 2)
				if len(c.SmallestClusterOf(q)) == 0 {
					t.Errorf("empty smallest cluster of %d", q)
					return
				}
				c.EstimateDistance(0, 9)
				if _, err := c.Similarity(4, 5); err != nil {
					t.Error(err)
					return
				}
				if c.M() != 21 {
					t.Error("edge count changed under concurrency")
					return
				}
				if now := c.Now(); now < 0 || now > 300 {
					t.Errorf("implausible time %v", now)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	c.Snapshot()
	if c.N() != 10 || c.M() != 21 || c.Levels() != 4 {
		t.Fatalf("shape wrong after concurrent use")
	}
	if c.Now() != 300 {
		t.Fatalf("Now = %v after 300 activations", c.Now())
	}
	if got := canonClusters(c.EvenClusters(2)); got == "" {
		t.Fatal("EvenClusters empty")
	}
	if got := c.SmallestClusterOf(7); len(got) == 0 {
		t.Fatal("SmallestClusterOf empty")
	}
}

// TestConcurrentSaveRace runs Save in a loop beside readers and one
// writer under ANCF, so every Save has pending work to write. Save takes
// only the shared lock; run with -race to verify it only reads. Every
// saved snapshot must Load.
func TestConcurrentSaveRace(t *testing.T) {
	n, edges := barbell()
	cfg := testConfig()
	cfg.Method = ANCF
	net, err := NewNetwork(n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(net)
	var wg sync.WaitGroup
	var writing atomic.Bool
	writing.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for i := 1; i <= 300; i++ {
			e := edges[i%len(edges)]
			if err := c.Activate(e[0], e[1], float64(i)); err != nil {
				t.Error(err)
				return
			}
			if i%100 == 0 {
				if err := c.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for writing.Load() {
				c.Clusters(c.SqrtLevel())
				c.ClusterOf(q, 2)
				c.TieRank(1, 3)
			}
		}(q)
	}
	var saved [][]byte
	for len(saved) < 3 || writing.Load() {
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved = append(saved, buf.Bytes())
	}
	wg.Wait()
	for i, snap := range saved {
		if _, err := Load(bytes.NewReader(snap)); err != nil {
			t.Fatalf("snapshot %d of %d does not load: %v", i, len(saved), err)
		}
	}
}

// TestConcurrentBatchIngestRace drives ActivateBatch against concurrent
// readers of Clusters/ClusterOf/EstimateDistance and the parity wrappers
// (Activeness, EstimateAttraction), each reader zooming over the levels as
// a caller-held level; run with -race to verify every batch happens under
// one exclusive lock acquisition.
func TestConcurrentBatchIngestRace(t *testing.T) {
	n, edges := barbell()
	cfg := testConfig()
	cfg.Parallel = true
	net, err := NewNetwork(n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(net)
	defer c.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			t0 := float64(i * 3)
			batch := []Activation{
				{U: 4, V: 5, T: t0}, {U: 0, V: 1, T: t0 + 1},
				{U: 4, V: 5, T: t0 + 1}, {U: 7, V: 8, T: t0 + 2},
			}
			if err := c.ActivateBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			level := c.SqrtLevel()
			for i := 0; i < 80; i++ {
				c.Clusters(c.SqrtLevel())
				if len(c.ClusterOf(q, 2)) == 0 {
					t.Errorf("empty cluster of %d", q)
					return
				}
				c.EstimateDistance(0, 9)
				c.EstimateAttraction(0, 9)
				if _, err := c.Activeness(4, 5); err != nil {
					t.Error(err)
					return
				}
				c.Clusters(level)
				if len(c.ClusterOf(q, level)) == 0 {
					t.Errorf("empty cluster of %d at level %d", q, level)
					return
				}
				level = 1 + (level+q)%c.Levels()
			}
		}(q)
	}
	wg.Wait()
	if c.Now() != 179 {
		t.Fatalf("Now = %v after batched ingest", c.Now())
	}
}

// TestConcurrentServeShapeRace is the serving-layer stress shape under
// -race: one goroutine ingesting via ActivateBatch while several others
// issue exactly the reads the server dispatches concurrently —
// EvenClusters, SmallestClusterOf, Stats, and a cursor on the change feed,
// each reader holding its own and all of them under the shared lock.
func TestConcurrentServeShapeRace(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(net)
	defer c.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 80; i++ {
			t0 := float64(i * 2)
			batch := []Activation{
				{U: 4, V: 5, T: t0}, {U: 3, V: 4, T: t0}, {U: 5, V: 6, T: t0 + 1},
			}
			if err := c.ActivateBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var cursor uint64
			for i := 0; i < 100; i++ {
				if got := c.EvenClusters(c.SqrtLevel()); len(got) == 0 {
					t.Error("EvenClusters empty under ingest")
					return
				}
				if got := c.SmallestClusterOf(q); len(got) == 0 {
					t.Errorf("empty smallest cluster of %d", q)
					return
				}
				events, seq, missed := c.Events(cursor, []int{4})
				if seq < cursor || missed != 0 {
					t.Errorf("cursor %d read seq %d, %d missed", cursor, seq, missed)
					return
				}
				for _, e := range events {
					if e.Node != 4 {
						t.Errorf("event for unwatched node: %+v", e)
						return
					}
				}
				cursor = seq
				st := c.Stats()
				if st.Nodes != 10 || st.Edges != 21 {
					t.Errorf("stats shape %d/%d under ingest", st.Nodes, st.Edges)
					return
				}
				if st.Activations > 240 {
					t.Errorf("activation counter overran: %d", st.Activations)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if st := c.Stats(); st.Activations != 240 || st.Now != 159 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestTieRankPerClusterConsistent: a lock-free per-cluster TieRank pairs
// a rank snapshot with a clustering snapshot, read by two loads, and both
// must belong to the same write. One writer with strictly increasing batch
// times keeps the tracked level flipping and records, per Now, the
// clustering its write left; readers check that every per-cluster group of
// every reply is the matching cluster of the clustering recorded at the
// reply's Now. Run under -race by make race.
func TestTieRankPerClusterConsistent(t *testing.T) {
	net, edges := seededCacheNetwork(t, 13, 64)
	c := NewConcurrent(net)
	defer c.Close()
	n, level := c.N(), c.SqrtLevel()

	var mu sync.Mutex
	recorded := map[float64][][]int{c.Now(): c.Clusters(level)}
	// check reports whether the reply is consistent; ok is false when its
	// Now is not recorded yet (the writer records after its write returns).
	check := func(res TieRankResult) (consistent, ok bool) {
		mu.Lock()
		want, ok := recorded[res.Now]
		mu.Unlock()
		if !ok {
			return false, false
		}
		if len(res.Clusters) != len(want) {
			return false, true
		}
		for i, g := range res.Clusters {
			in := map[int]bool{}
			for _, v := range want[i] {
				in[v] = true
			}
			if len(g) != len(want[i]) {
				return false, true
			}
			for _, e := range g {
				if !in[e.Node] {
					return false, true
				}
			}
		}
		return true, true
	}

	var replies, mixed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pending := make([][]TieRankResult, 4)
	for r := range pending {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := c.TieRank(level, n)
				replies.Add(1)
				if consistent, ok := check(res); !ok {
					pending[r] = append(pending[r], res)
				} else if !consistent {
					mixed.Add(1)
				}
			}
		}(r)
	}

	// canonClusters sorts in place, so it gets its own copy, not the
	// recorded one the readers compare against.
	swaps, last, now := 0, canonClusters(c.Clusters(level)), c.Now()
	for i := 0; i < 100; i++ {
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
		cl := c.Clusters(level)
		mu.Lock()
		recorded[now] = cl
		mu.Unlock()
		if got := canonClusters(c.Clusters(level)); got != last {
			swaps, last = swaps+1, got
		}
	}
	close(stop)
	wg.Wait()

	for _, rs := range pending {
		for _, res := range rs {
			if consistent, ok := check(res); !ok || !consistent {
				mixed.Add(1)
			}
		}
	}
	if swaps < 20 {
		t.Fatalf("the tracked level changed %d times in 100 batches: the workload does not flip it", swaps)
	}
	if m := mixed.Load(); m != 0 {
		t.Fatalf("%d of %d per-cluster TieRank replies pair a rank and a clustering from different writes", m, replies.Load())
	}
}
