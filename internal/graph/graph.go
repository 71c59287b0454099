// Package graph provides the static relation-network representation used by
// every other package in this repository: an undirected, unweighted graph
// with dense node IDs, stable edge IDs, and sorted adjacency lists.
//
// The relation graph of an activation network is assumed to change rarely
// (Section I of the paper); all per-edge dynamic state (activeness,
// similarity) is kept in parallel arrays indexed by edge ID, owned by the
// packages that maintain it.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node; nodes are dense integers in [0, N()).
type NodeID = int32

// EdgeID identifies an undirected edge; edges are dense integers in [0, M()).
type EdgeID = int32

// None marks an absent node or edge.
const None = int32(-1)

// Half is one direction of an undirected edge as stored in an adjacency list.
type Half struct {
	To   NodeID // the neighbor
	Edge EdgeID // stable ID of the undirected edge
}

// Graph is an immutable undirected graph in compressed-sparse-row form.
// Neighbor lists are sorted by neighbor ID, enabling linear-time
// intersection of two neighborhoods (used heavily by the similarity layer).
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []Half  // len 2m
	srcs    []NodeID
	dsts    []NodeID // endpoints by edge ID, srcs[e] < dsts[e]
	rank    []NodeID // nodes by decreasing degree, ties by increasing ID
	rankPos []int32  // inverse of rank: rankPos[rank[i]] == i
	// byRank holds each adjacency list again, over the same offsets, split
	// by rank: Up(v) = byRank[offsets[v]:split[v]], Down(v) =
	// byRank[split[v]:offsets[v+1]], each half in adjacency order.
	byRank []Half
	split  []int32
}

// Edge is an undirected edge given by its two endpoints.
type Edge struct {
	U, V NodeID
}

// Builder accumulates edges and produces an immutable Graph.
// Self-loops are rejected; duplicate edges are merged (first wins).
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: int32(n)}
}

// AddEdge records the undirected edge (u, v). It returns an error if either
// endpoint is out of range or u == v.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{u, v})
	return nil
}

// Build finalizes the builder into an immutable Graph. Duplicate edges are
// collapsed to a single edge.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	b.edges = uniq

	n := int(b.n)
	m := len(b.edges)
	g := &Graph{
		offsets: make([]int32, n+1),
		adj:     make([]Half, 2*m),
		srcs:    make([]NodeID, m),
		dsts:    make([]NodeID, m),
	}
	deg := make([]int32, n)
	for i, e := range b.edges {
		g.srcs[i] = e.U
		g.dsts[i] = e.V
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + deg[v]
	}
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for i, e := range b.edges {
		g.adj[cursor[e.U]] = Half{To: e.V, Edge: EdgeID(i)}
		cursor[e.U]++
		g.adj[cursor[e.V]] = Half{To: e.U, Edge: EdgeID(i)}
		cursor[e.V]++
	}
	// Edges were added in sorted (U,V) order so each adjacency list is
	// already sorted by neighbor ID: for list of node w, entries with
	// To < w come from edges (To, w) sorted by To, then entries with
	// To > w come from edges (w, To) sorted by To.

	// Degree rank by counting sort: one bucket per degree in decreasing
	// order, nodes within a bucket in scan (increasing ID) order.
	maxDeg := int32(0)
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	next := make([]int32, maxDeg+2) // next[b]: next free rank of bucket b = maxDeg - degree
	for _, d := range deg {
		next[maxDeg-d+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	g.rank = make([]NodeID, n)
	g.rankPos = make([]int32, n)
	for v, d := range deg {
		b := maxDeg - d
		g.rank[next[b]] = NodeID(v)
		g.rankPos[v] = next[b]
		next[b]++
	}
	// Rank-directed adjacency, in the same pass over the nodes: each list's
	// higher-ranked neighbours, then its lower-ranked ones, both filtered in
	// adjacency order so a search over them pushes what one over Neighbors
	// with a rank test would push, in the same order.
	g.byRank = make([]Half, 2*m)
	g.split = make([]int32, n)
	for v := 0; v < n; v++ {
		list, at, k := g.Neighbors(NodeID(v)), g.rankPos[v], g.offsets[v]
		for _, h := range list {
			if g.rankPos[h.To] < at {
				g.byRank[k] = h
				k++
			}
		}
		g.split[v] = k
		for _, h := range list {
			if g.rankPos[h.To] > at {
				g.byRank[k] = h
				k++
			}
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.srcs) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v, sorted by neighbor ID.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []Half {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Endpoints returns the two endpoints of edge e, with U < V.
func (g *Graph) Endpoints(e EdgeID) (u, v NodeID) {
	return g.srcs[e], g.dsts[e]
}

// Other returns the endpoint of e that is not x.
func (g *Graph) Other(e EdgeID, x NodeID) NodeID {
	if g.srcs[e] == x {
		return g.dsts[e]
	}
	return g.srcs[e]
}

// FindEdge returns the edge ID of (u, v), or None if absent.
// It binary-searches the shorter adjacency list: O(log min(deg u, deg v)).
func (g *Graph) FindEdge(u, v NodeID) EdgeID {
	if u < 0 || v < 0 || int(u) >= g.N() || int(v) >= g.N() {
		return None
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i].To >= v })
	if i < len(list) && list[i].To == v {
		return list[i].Edge
	}
	return None
}

// CommonNeighbors calls fn(w, eu, ev) for every common neighbor w of u and v,
// where eu = edge (u,w) and ev = edge (v,w). Runs in O(deg u + deg v).
func (g *Graph) CommonNeighbors(u, v NodeID, fn func(w NodeID, eu, ev EdgeID)) {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].To < b[j].To:
			i++
		case a[i].To > b[j].To:
			j++
		default:
			fn(a[i].To, a[i].Edge, b[j].Edge)
			i++
			j++
		}
	}
}

// ExclusiveNeighbors calls fn(w, e) for every neighbor w of u that is not a
// neighbor of v and is not v itself, where e = edge (u,w).
func (g *Graph) ExclusiveNeighbors(u, v NodeID, fn func(w NodeID, e EdgeID)) {
	a, b := g.Neighbors(u), g.Neighbors(v)
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j].To < a[i].To {
			j++
		}
		if (j >= len(b) || b[j].To != a[i].To) && a[i].To != v {
			fn(a[i].To, a[i].Edge)
		}
		i++
	}
}

// Edges returns a fresh slice of all edges ordered by edge ID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, g.M())
	for i := range out {
		out[i] = Edge{g.srcs[i], g.dsts[i]}
	}
	return out
}

// DegreeRank returns all nodes sorted by decreasing degree, ties broken by
// increasing node ID — the search order of power clustering (Section V-B).
// The graph is immutable, so the order is computed once in Build; the
// returned slice is shared and must not be modified.
func (g *Graph) DegreeRank() []NodeID { return g.rank }

// DegreePos returns the inverse of DegreeRank: DegreePos()[v] is the rank
// position of node v. Shared like DegreeRank; must not be modified.
func (g *Graph) DegreePos() []int32 { return g.rankPos }

// Up returns the half-edges of v to higher-ranked neighbours (smaller
// DegreePos) — the in-edges of v when every edge is directed down the
// degree rank, as power clustering directs them. In adjacency order;
// aliases internal storage and must not be modified.
func (g *Graph) Up(v NodeID) []Half { return g.byRank[g.offsets[v]:g.split[v]] }

// Down returns the half-edges of v to lower-ranked neighbours (larger
// DegreePos) — the out-edges power clustering follows. In adjacency order;
// Up(v) and Down(v) together hold Neighbors(v) exactly once. Aliases
// internal storage and must not be modified.
func (g *Graph) Down(v NodeID) []Half { return g.byRank[g.split[v]:g.offsets[v+1]] }
