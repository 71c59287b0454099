package cluster

import "testing"

// TestHotPathAllocs gates the extraction kernels the single writer runs
// inside every ingest call (make bench-smoke): Power and Even allocate a
// small constant number of objects — the memo, the label array, one member
// slab, one stack, the cluster headers — whatever the cluster count. A
// per-cluster member slice, a grown stack or a per-call degree sort all
// break the equality or the bound.
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
}
