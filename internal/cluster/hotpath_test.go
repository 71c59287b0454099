package cluster

import (
	"testing"

	"anc/internal/pyramid"
)

// TestHotPathAllocs gates the extraction kernels (make bench-smoke): Power
// and Even allocate a small constant number of objects — the label array,
// one member slab, one stack, the cluster headers — whatever the
// cluster count. A per-cluster member slice, a grown stack or a per-call
// degree sort all break the equality or the bound. The repair of the tracked
// level, which the single writer runs inside every ingest call that flips
// it, rides the same gate: its worklist, root table, remap and search
// scratch are reused, so a repair allocates what it publishes — the
// Clustering, the cluster headers, one member slab and at most one label
// array — and nothing else. RepairEven, which readers run on a cache miss,
// is held to the same four.
func TestHotPathAllocs(t *testing.T) {
	ix := benchIndex(t, 1024)
	for name, fn := range map[string]func(level int) *Clustering{
		"Power": func(l int) *Clustering { return Power(ix, l) },
		"Even":  func(l int) *Clustering { return Even(ix, l) },
	} {
		coarse, fine := 1, ix.Levels()
		few, many := fn(coarse).NumClusters(), fn(fine).NumClusters()
		if many < 8*few || many < 100 {
			t.Fatalf("%s: %d clusters at level %d, %d at level %d: fixture does not spread the cluster count", name, few, coarse, many, fine)
		}
		a := testing.AllocsPerRun(10, func() { fn(coarse) })
		b := testing.AllocsPerRun(10, func() { fn(fine) })
		if a != b || a > 12 {
			t.Errorf("%s allocates %v times for %d clusters and %v for %d, want one constant ≤ 12", name, a, few, b, many)
		}
	}

	level := pyramid.SqrtLevel(1024)
	feed := newFlipFeed(ix, level, 3)
	var r Repairer
	cur, even := Power(ix, level), Even(ix, level)
	for step := 0; step < 100; step++ {
		flips := feed.step(1 + feed.rng.Intn(24))
		// Repeating one repair gives the same answer each time; the warm-up
		// run AllocsPerRun discards is the one that may grow the scratch. The
		// count is process-wide and the average truncates, so ten runs absorb
		// the few objects the runtime allocates itself (the process's first GC
		// cycle starting its workers) while a fifth object per repair shows.
		var next, nextEven *Clustering
		if a := testing.AllocsPerRun(10, func() { next, _, _ = r.Repair(ix, level, cur, flips) }); a > 4 {
			t.Errorf("step %d: a repair of %d flips allocated %v objects, want at most the 4 it publishes", step, len(flips), a)
		}
		if a := testing.AllocsPerRun(10, func() { nextEven = r.RepairEven(ix, level, even, flips) }); a > 4 {
			t.Errorf("step %d: an even repair of %d flips allocated %v objects, want at most the 4 it publishes", step, len(flips), a)
		}
		cur, even = next, nextEven
	}
}
