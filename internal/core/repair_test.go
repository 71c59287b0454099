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
