package core

import (
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
