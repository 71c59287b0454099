package anc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// barbell builds two K5s joined by a bridge as [][2]int edges.
func barbell() (int, [][2]int) {
	var edges [][2]int
	for base := 0; base <= 5; base += 5 {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	edges = append(edges, [2]int{4, 5})
	return 10, edges
}

func testConfig() Config {
	c := DefaultConfig()
	c.Epsilon = 0.2
	c.Mu = 3
	return c
}

func TestNewNetworkAndQueries(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 10 || net.M() != 21 {
		t.Fatalf("n=%d m=%d", net.N(), net.M())
	}
	if net.Levels() != 4 {
		t.Fatalf("levels = %d, want ⌈log₂ 10⌉ = 4", net.Levels())
	}
	cs := net.Clusters(net.SqrtLevel())
	total := 0
	for _, c := range cs {
		total += len(c)
	}
	if total != 10 {
		t.Fatalf("clusters cover %d nodes", total)
	}
	mine := net.ClusterOf(0, net.SqrtLevel())
	found := false
	for _, v := range mine {
		if v == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("ClusterOf(0) does not contain 0")
	}
}

func TestNewNetworkRejectsBadEdges(t *testing.T) {
	if _, err := NewNetwork(3, [][2]int{{0, 0}}, testConfig()); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewNetwork(3, [][2]int{{0, 5}}, testConfig()); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestActivateAndSimilarity(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s0, err := net.Similarity(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := net.Activate(4, 5, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s1, err := net.Similarity(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s0 {
		t.Fatalf("similarity did not grow under activations: %v -> %v", s0, s1)
	}
	a, err := net.Activeness(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 1 {
		t.Fatalf("activeness = %v after 20 activations", a)
	}
	if err := net.Activate(0, 7, 21); err == nil {
		t.Fatal("activation on non-edge accepted")
	}
	if _, err := net.Similarity(0, 7); err == nil {
		t.Fatal("similarity on non-edge accepted")
	}
	if _, err := net.Activeness(0, 7); err == nil {
		t.Fatal("activeness on non-edge accepted")
	}
	if net.Now() != 20 {
		t.Fatalf("Now = %v, want 20", net.Now())
	}
}

func TestLoadEdgeList(t *testing.T) {
	in := "100 200\n200 300\n100 300\n"
	net, ids, err := LoadEdgeList(strings.NewReader(in), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 3 || net.M() != 3 {
		t.Fatalf("n=%d m=%d", net.N(), net.M())
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if _, _, err := LoadEdgeList(strings.NewReader("oops\n"), testConfig()); err == nil {
		t.Fatal("malformed list accepted")
	}
}

func TestViewNavigation(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	v := net.View()
	if v.Level() != net.SqrtLevel() {
		t.Fatalf("view starts at %d, want %d", v.Level(), net.SqrtLevel())
	}
	for v.ZoomOut() {
	}
	if v.Level() != 1 {
		t.Fatal("zoom-out floor wrong")
	}
	for v.ZoomIn() {
	}
	if v.Level() != net.Levels() {
		t.Fatal("zoom-in ceiling wrong")
	}
	if len(v.Clusters()) == 0 {
		t.Fatal("no clusters at finest level")
	}
	if len(v.ClusterOf(3)) == 0 {
		t.Fatal("empty cluster of node 3")
	}
}

func TestSmallestClusterOf(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := net.SmallestClusterOf(2)
	def := net.ClusterOf(2, net.SqrtLevel())
	if len(small) > len(def) {
		t.Fatalf("smallest cluster (%d) larger than default granularity (%d)", len(small), len(def))
	}
}

func TestMethodsSnapshot(t *testing.T) {
	n, edges := barbell()
	for _, m := range []Method{ANCO, ANCOR, ANCF} {
		cfg := testConfig()
		cfg.Method = m
		net, err := NewNetwork(n, edges, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := 1; i <= 10; i++ {
			if err := net.Activate(4, 5, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		net.Snapshot()
		if cs := net.Clusters(2); len(cs) == 0 {
			t.Fatalf("%v: no clusters", m)
		}
	}
}

func TestLevelClamping(t *testing.T) {
	n, edges := barbell()
	net, err := NewNetwork(n, edges, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Clusters(-3)) == 0 || len(net.Clusters(99)) == 0 {
		t.Fatal("clamped levels should still answer")
	}
	if len(net.EvenClusters(99)) == 0 {
		t.Fatal("even clusters at clamped level")
	}
}

// TestClustersOneSlab: the public member lists are one slab cut into
// three-index sub-slices. Appending to one cluster leaves the next intact,
// and converting a clustering allocates the same two objects at the
// coarsest and the finest level, whatever the cluster count — as does the
// whole query.
func TestClustersOneSlab(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(7))
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, [2]int{u, v})
		}
	}
	net, err := NewNetwork(n, edges, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	coarse, fine := 1, net.Levels()
	few, many := len(net.Clusters(coarse)), len(net.Clusters(fine))
	if many < 4*few || many < 50 {
		t.Fatalf("%d clusters at level %d, %d at level %d: fixture does not spread the cluster count", few, coarse, many, fine)
	}

	cs := net.Clusters(fine)
	next := slices.Clone(cs[1])
	cs[0] = append(cs[0], -1, -2, -3)
	if !slices.Equal(cs[1], next) {
		t.Fatalf("appending to cluster 0 overwrote cluster 1: %v, was %v", cs[1], next)
	}

	for _, l := range []int{coarse, fine} {
		members := net.inner.Clusters(l).Clusters
		if a := testing.AllocsPerRun(20, func() { toInts(members) }); a != 2 {
			t.Errorf("level %d: toInts of %d clusters allocates %v times, want 2", l, len(members), a)
		}
	}
	a := testing.AllocsPerRun(20, func() { net.Clusters(coarse) })
	b := testing.AllocsPerRun(20, func() { net.Clusters(fine) })
	if a != b {
		t.Errorf("Clusters allocates %v times for %d clusters and %v for %d, want one constant", a, few, b, many)
	}
}
