package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// k4 builds the complete graph on 4 nodes.
func k4(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	for u := NodeID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Build()
}

func TestBuildBasic(t *testing.T) {
	g := k4(t)
	if g.N() != 4 || g.M() != 6 {
		t.Fatalf("got n=%d m=%d, want 4, 6", g.N(), g.M())
	}
	for v := NodeID(0); v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("deg(%d) = %d, want 3", v, g.Degree(v))
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Error("negative endpoint accepted")
	}
}

func TestDuplicateEdgesCollapse(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(50)
	for i := 0; i < 300; i++ {
		u, v := NodeID(rng.Intn(50)), NodeID(rng.Intn(50))
		if u != v {
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(NodeID(v))
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i].To < ns[j].To }) {
			t.Fatalf("neighbors of %d not sorted: %v", v, ns)
		}
	}
}

func TestEndpointsAndOther(t *testing.T) {
	g := k4(t)
	for e := EdgeID(0); int(e) < g.M(); e++ {
		u, v := g.Endpoints(e)
		if u >= v {
			t.Fatalf("edge %d endpoints not ordered: %d %d", e, u, v)
		}
		if g.Other(e, u) != v || g.Other(e, v) != u {
			t.Fatalf("Other inconsistent for edge %d", e)
		}
	}
}

func TestFindEdge(t *testing.T) {
	b := NewBuilder(5)
	must := func(u, v NodeID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 1)
	must(1, 2)
	must(3, 4)
	g := b.Build()
	if e := g.FindEdge(1, 0); e == None {
		t.Error("FindEdge(1,0) = None, want edge")
	}
	if e := g.FindEdge(0, 2); e != None {
		t.Errorf("FindEdge(0,2) = %d, want None", e)
	}
	if e := g.FindEdge(0, 99); e != None {
		t.Errorf("FindEdge out of range = %d, want None", e)
	}
	// Symmetry.
	if g.FindEdge(3, 4) != g.FindEdge(4, 3) {
		t.Error("FindEdge not symmetric")
	}
}

func TestCommonNeighbors(t *testing.T) {
	// Path 0-1-2 plus triangle 0-2: common neighbors of 0 and 2 is {1}.
	b := NewBuilder(4)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	var got []NodeID
	g.CommonNeighbors(0, 2, func(w NodeID, eu, ev EdgeID) {
		got = append(got, w)
		if g.Other(eu, 0) != w || g.Other(ev, 2) != w {
			t.Errorf("edge ids wrong for common neighbor %d", w)
		}
	})
	if !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("common neighbors = %v, want [1]", got)
	}
}

func TestExclusiveNeighbors(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	// Exclusive neighbors of 0 w.r.t. 1: neighbors of 0 minus neighbors of 1 minus {1} = {3}.
	var got []NodeID
	g.ExclusiveNeighbors(0, 1, func(w NodeID, e EdgeID) { got = append(got, w) })
	if !reflect.DeepEqual(got, []NodeID{3}) {
		t.Fatalf("exclusive = %v, want [3]", got)
	}
	// The other side: neighbors of 1 minus neighbors of 0 minus {0} = {4}.
	got = nil
	g.ExclusiveNeighbors(1, 0, func(w NodeID, e EdgeID) { got = append(got, w) })
	if !reflect.DeepEqual(got, []NodeID{4}) {
		t.Fatalf("exclusive = %v, want [4]", got)
	}
}

// TestNeighborSetProperty cross-checks CommonNeighbors/ExclusiveNeighbors
// against brute-force set computation on random graphs.
func TestNeighborSetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := NewBuilder(n)
		for i := 0; i < n*3; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			return true
		}
		inV := make(map[NodeID]bool)
		for _, h := range g.Neighbors(v) {
			inV[h.To] = true
		}
		var wantCommon, wantExcl []NodeID
		for _, h := range g.Neighbors(u) {
			if inV[h.To] {
				wantCommon = append(wantCommon, h.To)
			} else if h.To != v {
				wantExcl = append(wantExcl, h.To)
			}
		}
		var gotCommon, gotExcl []NodeID
		g.CommonNeighbors(u, v, func(w NodeID, _, _ EdgeID) { gotCommon = append(gotCommon, w) })
		g.ExclusiveNeighbors(u, v, func(w NodeID, _ EdgeID) { gotExcl = append(gotExcl, w) })
		return reflect.DeepEqual(wantCommon, gotCommon) && reflect.DeepEqual(wantExcl, gotExcl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeRank(t *testing.T) {
	// Star with center 3 plus pendant edge 0-1: deg 3 = 4, deg 0 = 2, rest 1.
	b := NewBuilder(5)
	for _, v := range []NodeID{0, 1, 2, 4} {
		if err := b.AddEdge(3, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	rank := g.DegreeRank()
	if rank[0] != 3 {
		t.Fatalf("rank[0] = %d, want 3", rank[0])
	}
	// Ties (deg 2): nodes 0, 1 in ID order.
	if rank[1] != 0 || rank[2] != 1 {
		t.Fatalf("tie order wrong: %v", rank)
	}

	// The rank is computed once in Build: every call hands out the same
	// backing array, and DegreePos is its inverse.
	if again := g.DegreeRank(); &again[0] != &rank[0] {
		t.Fatal("DegreeRank returned a different backing array on the second call")
	}
	for i, v := range rank {
		if g.DegreePos()[v] != int32(i) {
			t.Fatalf("DegreePos[%d] = %d, want %d", v, g.DegreePos()[v], i)
		}
	}

	// The counting sort must reproduce the comparison sort it replaced —
	// decreasing degree, ties by increasing ID — on graphs with few distinct
	// degrees (so most nodes tie), isolated nodes included.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		b := NewBuilder(n)
		for i := rng.Intn(2 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
		g := b.Build()
		want := make([]NodeID, n)
		for i := range want {
			want[i] = NodeID(i)
		}
		sort.Slice(want, func(i, j int) bool {
			du, dv := g.Degree(want[i]), g.Degree(want[j])
			if du != dv {
				return du > dv
			}
			return want[i] < want[j]
		})
		if got := g.DegreeRank(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, m=%d): counting sort %v, comparison sort %v", trial, n, g.M(), got, want)
		}
	}
	if r := NewBuilder(0).Build().DegreeRank(); len(r) != 0 {
		t.Fatalf("empty graph has rank %v", r)
	}
}

func TestReadWriteEdgeListRoundTrip(t *testing.T) {
	in := "# comment\n% other comment\n10 20\n20 30\n\n10 30\n10 10\n"
	g, ids, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d, want 3,3", g.N(), g.M())
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed sizes: %d,%d vs %d,%d", g2.N(), g2.M(), g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric line accepted")
	}
}

func TestEdgesAccessor(t *testing.T) {
	g := k4(t)
	es := g.Edges()
	if len(es) != 6 {
		t.Fatalf("len = %d", len(es))
	}
	for i, e := range es {
		u, v := g.Endpoints(EdgeID(i))
		if e.U != u || e.V != v {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}
