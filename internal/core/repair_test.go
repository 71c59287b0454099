package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anc/internal/analytics"
	"anc/internal/cluster"
	"anc/internal/gen"
	"anc/internal/graph"
)

// TestTrackedLevelRepairDifferential drives networks with analytics on
// through mixed single and batched ingest and checks, after every call, that
// the tracked level's published clustering — repaired along the call's vote
// flips — is cluster.Power's answer byte for byte (Labels and every member
// list in order), and that the evolution stream equals that of a shadow
// tracker fed whole recomputes. ANCOR runs several repair cycles per call, so
// its flip lists carry edges twice, some netting to nothing.
func TestTrackedLevelRepairDifferential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"planted":   gen.PlantedPartition([]int{40, 40, 40, 40, 40, 40, 40, 40}, 0.2, 0.01, rand.New(rand.NewSource(1))).Graph,
		"starheavy": gen.BarabasiAlbert(300, 2, rand.New(rand.NewSource(2))),
	}
	for name, g := range graphs {
		for _, m := range []Method{ANCO, ANCOR} {
			for _, parallel := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/parallel=%v", name, m, parallel), func(t *testing.T) {
					repairDifferential(t, g, m, parallel)
				})
			}
		}
	}
}

func repairDifferential(t *testing.T, g *graph.Graph, m Method, parallel bool) {
	opts := options(m)
	opts.Pyramid.Parallel = parallel
	nw, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.EnableClusterCache()
	nw.EnableAnalytics()
	level := nw.EvolutionTracker().Level()
	shadow := analytics.NewTracker(level, analytics.DefaultTrackerConfig())
	shadow.Seed(cluster.Power(nw.ix, level))

	rng := rand.New(rand.NewSource(7))
	// A few hot edges take most activations, so their neighbourhoods keep
	// crossing the vote threshold in both directions.
	hot := make([]graph.EdgeID, 24)
	for i := range hot {
		hot[i] = graph.EdgeID(rng.Intn(g.M()))
	}
	pick := func() graph.EdgeID {
		if rng.Intn(4) > 0 {
			return hot[rng.Intn(len(hot))]
		}
		return graph.EdgeID(rng.Intn(g.M()))
	}
	now, repairs := 0.0, 0
	for step := 0; step < 240; step++ {
		before := nw.EvolutionTracker().Baseline()
		if step%3 == 0 {
			now += rng.Float64()
			if err := nw.Activate(pick(), now); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := make([]Activation, 1+rng.Intn(64))
			for i := range batch {
				now += rng.Float64() / 2 // long batches span several ANCOR intervals
				batch[i] = Activation{Edge: pick(), T: now}
			}
			if err := nw.ActivateBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		got, want := nw.EvolutionTracker().Baseline(), cluster.Power(nw.ix, level)
		if got != before {
			repairs++
		}
		if cached, ok := nw.cache.Power(level); !ok || cached != got {
			t.Fatalf("step %d: the cache does not serve the tracked clustering", step)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("step %d: repaired Labels differ from cluster.Power", step)
		}
		if len(got.Clusters) != len(want.Clusters) {
			t.Fatalf("step %d: %d clusters, cluster.Power has %d", step, len(got.Clusters), len(want.Clusters))
		}
		for i := range want.Clusters {
			if !slices.Equal(got.Clusters[i], want.Clusters[i]) {
				t.Fatalf("step %d: cluster %d = %v, cluster.Power has %v", step, i, got.Clusters[i], want.Clusters[i])
			}
		}
		shadow.Observe(want, nw.clock.Now())
		gotEv, gotSeq, _ := nw.EvolutionEvents(0)
		wantEv, wantSeq, _ := shadow.Events(0)
		if gotSeq != wantSeq || !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("step %d: evolution stream diverged from the full-recompute tracker:\n got %+v\nwant %+v", step, gotEv, wantEv)
		}
	}
	if repairs < 20 {
		t.Fatalf("only %d of 240 calls flipped the tracked level: the history does not exercise the repair", repairs)
	}
	if _, seq, _ := shadow.Events(0); seq == 0 {
		t.Fatal("the history emitted no evolution event")
	}
}

// TestAdoptCachesKeepsEvolution: a network restored from a snapshot adopts
// the evolution tracker of the one it replaces, so the sequence, the ring
// and the drop total carry over. The restored clustering is seeded
// silently: adopting emits nothing, and the next event numbers on.
func TestAdoptCachesKeepsEvolution(t *testing.T) {
	g := gen.PlantedPartition([]int{40, 40, 40, 40}, 0.2, 0.01, rand.New(rand.NewSource(1))).Graph
	old, err := New(g, options(ANCO))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.EnableClusterCache()
	old.EnableAnalytics()
	level := old.EvolutionTracker().Level()

	rng := rand.New(rand.NewSource(3))
	now := 0.0
	// ingest heats a fresh set of edges, so each call moves the clustering.
	ingest := func(nw *Network) {
		hot := make([]graph.EdgeID, 12)
		for i := range hot {
			hot[i] = graph.EdgeID(rng.Intn(g.M()))
		}
		for step := 0; step < 60; step++ {
			batch := make([]Activation, 32)
			for i := range batch {
				now += 0.1
				batch[i] = Activation{Edge: hot[rng.Intn(len(hot))], T: now}
			}
			if err := nw.ActivateBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(old)
	wantEv, wantSeq, wantDropped := old.EvolutionEvents(0)
	if wantSeq == 0 {
		t.Fatal("the history emitted no evolution event")
	}

	var snap bytes.Buffer
	if err := old.Save(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	restored.AdoptCaches(old)

	gotEv, gotSeq, gotDropped := restored.EvolutionEvents(0)
	if gotSeq < wantSeq {
		t.Fatalf("adopted tracker restarted: seq %d, the replaced network's was %d", gotSeq, wantSeq)
	}
	if gotSeq != wantSeq || gotDropped != wantDropped || !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("adopting changed the stream: seq %d → %d, dropped %d → %d, %d → %d events",
			wantSeq, gotSeq, wantDropped, gotDropped, len(wantEv), len(gotEv))
	}
	if base := restored.EvolutionTracker().Baseline(); !reflect.DeepEqual(base.Labels, cluster.Power(restored.ix, level).Labels) {
		t.Fatal("the adopted tracker is not seeded with the restored clustering")
	}
	ingest(restored)
	if evs, seq, _ := restored.EvolutionEvents(wantSeq); seq <= wantSeq || len(evs) == 0 || evs[0].Seq != wantSeq+1 {
		t.Fatalf("after adopting, the next events do not number on from %d: seq %d, %d events", wantSeq, seq, len(evs))
	}
}

// sameClustering reports whether got is byte for byte want: the same Labels
// and every member list in the same order.
func sameClustering(got, want *cluster.Clustering) bool {
	if !slices.Equal(got.Labels, want.Labels) || len(got.Clusters) != len(want.Clusters) {
		return false
	}
	for i := range want.Clusters {
		if !slices.Equal(got.Clusters[i], want.Clusters[i]) {
			return false
		}
	}
	return true
}

// TestReadRepairDifferential holds every level's cached answer, repaired
// on read from the baseline the last write dropped, to a recompute. After
// every ingest call — single or batched — a random third of the levels is
// read in each variant: two (level, variant) pairs in three are read at
// every other call and the third one call in twenty, none going unread for
// 50 calls, so the logs a miss repairs along span 1 to 50 writes. ANCO and ANCOR run serial
// and Parallel; ANCF flushes and takes a Snapshot, which resets every
// baseline, every few calls; halfway through, the network is saved, loaded and adopts the
// caches, as a durable restore does.
func TestReadRepairDifferential(t *testing.T) {
	g := gen.PlantedPartition([]int{40, 40, 40, 40, 40, 40, 40, 40}, 0.2, 0.01, rand.New(rand.NewSource(1))).Graph
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		for _, parallel := range []bool{false, true} {
			if m == ANCF && parallel {
				continue // ANCF's index changes only in Snapshot's reconstruct
			}
			t.Run(fmt.Sprintf("%v/parallel=%v", m, parallel), func(t *testing.T) {
				readRepairDifferential(t, g, m, parallel)
			})
		}
	}
}

func readRepairDifferential(t *testing.T, g *graph.Graph, m Method, parallel bool) {
	opts := options(m)
	opts.Pyramid.Parallel = parallel
	nw, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { nw.Close() }()
	nw.EnableClusterCache()
	nw.EnableAnalytics()
	levels := nw.ix.Levels()

	rng := rand.New(rand.NewSource(11))
	hot := make([]graph.EdgeID, 32)
	for i := range hot {
		hot[i] = graph.EdgeID(rng.Intn(g.M()))
	}
	pick := func() graph.EdgeID {
		if rng.Intn(4) > 0 {
			return hot[rng.Intn(len(hot))]
		}
		return graph.EdgeID(rng.Intn(g.M()))
	}
	lastRead := make([][2]int, levels)
	now, repaired, longest := 0.0, 0, 0
	for step := 1; step <= 240; step++ {
		if step%3 == 0 {
			now += rng.Float64()
			if err := nw.Activate(pick(), now); err != nil {
				t.Fatal(err)
			}
		} else {
			batch := make([]Activation, 1+rng.Intn(64))
			for i := range batch {
				now += rng.Float64() / 2
				batch[i] = Activation{Edge: pick(), T: now}
			}
			if err := nw.ActivateBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if m == ANCF {
			// ANCF's index moves in Flush's incremental update, which flips
			// votes like any write, and in Snapshot's reconstruct, which
			// does not.
			switch step % 6 {
			case 2, 4:
				nw.Flush()
			case 0:
				if err := nw.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step == 120 {
			var snap bytes.Buffer
			if err := nw.Save(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := Load(&snap)
			if err != nil {
				t.Fatal(err)
			}
			restored.AdoptCaches(nw)
			nw.Close()
			nw = restored
		}
		for l := 1; l <= levels; l++ {
			for v, even := range []bool{false, true} {
				if rate := []int{2, 2, 20}[(2*l+v)%3]; rng.Intn(rate) > 0 && step-lastRead[l-1][v] < 50 {
					continue
				}
				lg := &nw.logs[l-1].power
				if even {
					lg = &nw.logs[l-1].even
				}
				_, hit := nw.cache.Power(l)
				if even {
					_, hit = nw.cache.Even(l)
				}
				if !hit && lg.base != nil {
					repaired++
					longest = max(longest, step-lastRead[l-1][v])
				}
				got, want := nw.Clusters(l), nw.ClustersUncached(l)
				if even {
					got, want = nw.EvenClusters(l), nw.EvenClustersUncached(l)
				}
				if !sameClustering(got, want) {
					t.Fatalf("step %d: level %d (even=%v) read %d calls after the last differs from a recompute", step, l, even, step-lastRead[l-1][v])
				}
				lastRead[l-1][v] = step
			}
		}
	}
	if repaired < 100 || longest < 30 {
		t.Fatalf("%d reads repaired from a baseline, the longest log spanning %d calls: the history does not exercise the read path", repaired, longest)
	}
	t.Logf("%d reads repaired, longest span %d calls", repaired, longest)
}

// TestTrackedEvenKeepsEveryFlipOfTheBatch is the regression for the
// tracked level's even entry: the power entry there is swapped at the end
// of the call, not dropped at the flip, so "the entry is still cached" does
// not mean "this is the write's first flip". A log rebased whenever it
// finds an entry would keep only the last of a batch's flips there, and
// the next EvenClusters would repair from a log missing the others.
// EvenClusters(tracked) is read before and after batches that flip the
// level at least twice.
func TestTrackedEvenKeepsEveryFlipOfTheBatch(t *testing.T) {
	g := gen.PlantedPartition([]int{40, 40, 40, 40, 40, 40, 40, 40}, 0.2, 0.01, rand.New(rand.NewSource(1))).Graph
	nw, err := New(g, options(ANCO))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.EnableClusterCache()
	nw.EnableAnalytics()
	level := nw.EvolutionTracker().Level()
	_, _, cursor, _ := nw.Flips(0)

	rng := rand.New(rand.NewSource(5))
	now, multi := 0.0, 0
	for step := 0; step < 200 && multi < 40; step++ {
		nw.EvenClusters(level)
		batch := make([]Activation, 48)
		for i := range batch {
			now += 0.05
			batch[i] = Activation{Edge: graph.EdgeID(rng.Intn(g.M())), T: now}
		}
		if err := nw.ActivateBatch(batch); err != nil {
			t.Fatal(err)
		}
		a, b, seq, _ := nw.Flips(cursor)
		flipped := 0
		for _, flips := range [2][]Flip{a, b} {
			for _, f := range flips {
				if int(f.Level) == level {
					flipped++
				}
			}
		}
		cursor = seq
		if flipped >= 2 {
			multi++
		}
		if !sameClustering(nw.EvenClusters(level), nw.EvenClustersUncached(level)) {
			t.Fatalf("step %d: after a batch flipping the tracked level %d times, EvenClusters(%d) differs from a recompute", step, flipped, level)
		}
	}
	if multi < 40 {
		t.Fatalf("only %d batches flipped the tracked level twice or more", multi)
	}
}

// TestActivateBatchAllocsWithBaselines: with the cache on, analytics off
// and every level read once, every level a write flips carries a baseline
// and a log, yet steady batched ingest allocates nothing — the flip
// listener reuses the log arrays it emptied at each rebase.
func TestActivateBatchAllocsWithBaselines(t *testing.T) {
	g := gen.PlantedPartition([]int{40, 40, 40, 40, 40, 40, 40, 40}, 0.2, 0.01, rand.New(rand.NewSource(1))).Graph
	nw, err := New(g, options(ANCO))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.EnableClusterCache()
	for l := 1; l <= nw.ix.Levels(); l++ {
		nw.Clusters(l)
		nw.EvenClusters(l)
	}
	rng := rand.New(rand.NewSource(9))
	batch := make([]Activation, 64)
	now := 0.0
	ingest := func() {
		for i := range batch {
			now += 0.05
			batch[i] = Activation{Edge: graph.EdgeID(rng.Intn(g.M())), T: now}
		}
		if err := nw.ActivateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	logged := func() (n int) {
		for _, lv := range nw.logs {
			n += len(lv.power.log) + len(lv.even.log)
		}
		return n
	}
	for i := 0; i < 200; i++ {
		ingest()
	}
	for l, lv := range nw.logs {
		_, power := nw.cache.Power(l + 1)
		_, even := nw.cache.Even(l + 1)
		if (lv.power.base == nil && !power) || (lv.even.base == nil && !even) {
			t.Fatalf("level %d neither cached nor carrying a baseline after warm-up", l+1)
		}
	}
	before := logged()
	if a := testing.AllocsPerRun(100, ingest); a != 0 {
		t.Fatalf("ActivateBatch with every level logged allocated %v objects per call, want 0", a)
	}
	if logged() == before {
		t.Fatal("the measured batches logged no flip")
	}
}
