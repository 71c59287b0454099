package cluster

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

// flipFeed drives one tracked level of an index with random weight batches
// and collects the level's net flips, the way core's OnFlip listener does.
type flipFeed struct {
	ix    *pyramid.Index
	level int
	rng   *rand.Rand
	flips []graph.EdgeID
}

func newFlipFeed(ix *pyramid.Index, level int, seed int64) *flipFeed {
	f := &flipFeed{ix: ix, level: level, rng: rand.New(rand.NewSource(seed))}
	ix.EnableVoteTracking().OnFlip(func(l int, e graph.EdgeID, _ bool) {
		if l == level {
			f.flips = append(f.flips, e)
		}
	})
	return f
}

// step applies one batch of `size` random reweights and returns the flips it
// caused at the tracked level (valid until the next step).
func (f *flipFeed) step(size int) []graph.EdgeID {
	f.flips = f.flips[:0]
	m := f.ix.Graph().M()
	edges := make([]graph.EdgeID, 0, size)
	weights := make([]float64, 0, size)
	picked := map[graph.EdgeID]bool{}
	for len(edges) < size {
		e := graph.EdgeID(f.rng.Intn(m))
		if picked[e] {
			continue
		}
		picked[e] = true
		edges = append(edges, e)
		weights = append(weights, 0.05+2*f.rng.Float64())
	}
	f.ix.UpdateEdges(edges, weights)
	return f.flips
}

// mustEqualPower fails unless got is byte for byte Power's answer: the same
// Labels and every member list in the same order.
func mustEqualPower(t *testing.T, step int, got *Clustering, ix *pyramid.Index, level int) {
	t.Helper()
	want := Power(ix, level)
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("step %d: repaired Labels differ from Power", step)
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("step %d: %d clusters, Power has %d", step, len(got.Clusters), len(want.Clusters))
	}
	for i := range want.Clusters {
		if !slices.Equal(got.Clusters[i], want.Clusters[i]) {
			t.Fatalf("step %d: cluster %d = %v, Power has %v", step, i, got.Clusters[i], want.Clusters[i])
		}
		if cap(got.Clusters[i]) != len(got.Clusters[i]) {
			t.Fatalf("step %d: cluster %d has len %d cap %d", step, i, len(got.Clusters[i]), cap(got.Clusters[i]))
		}
	}
}

// TestRepairMatchesPower is the index-level differential: after every random
// batch the repaired clustering equals a fresh Power, the clusters reported
// clean did not change, and the histories cover a root being born, a root
// dying and both in one repair (ID renumbering).
func TestRepairMatchesPower(t *testing.T) {
	ix := benchIndex(t, 700)
	level := pyramid.SqrtLevel(700)
	feed := newFlipFeed(ix, level, 5)
	var r Repairer
	prev := Power(ix, level)
	var births, deaths, both, aliasedLabels int
	for step := 0; step < 400; step++ {
		size := 1
		if step%3 != 0 {
			size = 2 + feed.rng.Intn(40)
		}
		flips := feed.step(size)
		if step%7 == 0 && len(flips) > 0 { // a repeated flip must be harmless
			flips = append(flips, flips[0])
		}
		cur, dirtyOld, dirtyNew := r.Repair(ix, level, prev, flips)
		mustEqualPower(t, step, cur, ix, level)
		if !slices.IsSorted(dirtyOld) || !slices.IsSorted(dirtyNew) {
			t.Fatalf("step %d: dirty lists not in ID order: %v %v", step, dirtyOld, dirtyNew)
		}
		// A cluster reported clean is unchanged, under a clean new ID.
		for id, members := range prev.Clusters {
			if _, dirty := slices.BinarySearch(dirtyOld, int32(id)); dirty {
				continue
			}
			now := cur.Labels[members[0]]
			if !slices.Equal(cur.Clusters[now], members) {
				t.Fatalf("step %d: cluster %d reported clean, yet %v became %v", step, id, members, cur.Clusters[now])
			}
			if _, dirty := slices.BinarySearch(dirtyNew, now); dirty {
				t.Fatalf("step %d: cluster %d clean before, dirty after", step, id)
			}
		}
		b, d := 0, 0
		for _, id := range dirtyNew {
			if x := cur.Clusters[id][0]; prev.Clusters[prev.Labels[x]][0] != x {
				b++
			}
		}
		for _, id := range dirtyOld {
			if x := prev.Clusters[id][0]; cur.Clusters[cur.Labels[x]][0] != x {
				d++
			}
		}
		if b > 0 {
			births++
		}
		if d > 0 {
			deaths++
		}
		if b > 0 && d > 0 {
			both++
		}
		if len(flips) > 0 && &cur.Labels[0] == &prev.Labels[0] {
			aliasedLabels++
		}
		prev = cur
	}
	if births == 0 || deaths == 0 || both == 0 {
		t.Fatalf("history never renumbered: %d repairs with a birth, %d with a death, %d with both", births, deaths, both)
	}
	t.Logf("births %d, deaths %d, both %d, label-aliasing repairs %d", births, deaths, both, aliasedLabels)
}

// TestRepairPinsNothing: a repaired clustering owns one slab like Power's
// and shares nothing with its predecessors but, at most, the label array, so
// ten thousand repairs leave the live heap where a thousand did.
func TestRepairPinsNothing(t *testing.T) {
	ix := benchIndex(t, 400)
	level := pyramid.SqrtLevel(400)
	feed := newFlipFeed(ix, level, 17)
	var r Repairer
	cur := Power(ix, level)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early uint64
	for step := 0; step < 10000; step++ {
		cur, _, _ = r.Repair(ix, level, cur, feed.step(1+feed.rng.Intn(6)))
		if step == 1000 {
			early = heap()
		}
	}
	if late := heap(); late > early+early/4+64<<10 {
		t.Fatalf("live heap grew from %d B after 1000 repairs to %d B after 10000", early, late)
	}
	runtime.KeepAlive(cur)
}
