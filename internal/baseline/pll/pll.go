// Package pll implements Pruned Landmark Labeling (Akiba, Iwata, Yoshida,
// SIGMOD 2013) for exact shortest-distance queries on weighted graphs —
// the exact-index alternative the paper's Section II rules out for
// activation networks: "the index time and index size of PLL are
// bottlenecks on static massive graphs, let alone the update". It exists
// as an ablation comparator (ancbench -exp ablation) to measure exactly
// that trade-off against the pyramids: PLL answers exact distances but
// its labels blow up with size and every weight change invalidates them,
// while the pyramids answer approximate queries from an index that is
// linear in n and repairs locally.
package pll

import (
	"math"

	"anc/internal/graph"
	"anc/internal/pq"
)

// label is one entry (landmark rank, distance) of a node's 2-hop label.
// Landmarks are identified by their position in the degree order, so
// labels are appended in increasing rank during construction and stay
// sorted — the invariant the pruning query relies on.
type label struct {
	rank int32
	dist float64
}

// Index is a 2-hop labeling: Query(u, v) = min over common landmarks of
// d(u, w) + d(w, v), which pruned construction makes exact.
type Index struct {
	labels [][]label
}

// Build constructs the labeling with pruned Dijkstras from every node in
// decreasing-degree order (the standard vertex ordering). O(n · m) worst
// case; practical on small graphs only — which is the point of the
// comparison.
func Build(g *graph.Graph, w func(e graph.EdgeID) float64) *Index {
	n := g.N()
	ix := &Index{labels: make([][]label, n)}
	order, rankOf := g.DegreeRank(), g.DegreePos()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	h := pq.New(n)
	var touched []graph.NodeID
	for _, root := range order {
		// Pruned Dijkstra from root.
		h.Reset()
		dist[root] = 0
		h.Push(root, 0)
		touched = touched[:0]
		touched = append(touched, root)
		for h.Len() > 0 {
			x, d := h.Pop()
			if d > dist[x] {
				continue
			}
			// Prune: if the current labels already certify d(root, x) ≤ d,
			// x (and everything behind it) needs no new entry.
			if ix.query(root, graph.NodeID(x)) <= d {
				continue
			}
			ix.labels[x] = append(ix.labels[x], label{rankOf[root], d})
			for _, half := range g.Neighbors(graph.NodeID(x)) {
				nd := d + w(half.Edge)
				if nd < dist[half.To] {
					if math.IsInf(dist[half.To], 1) {
						touched = append(touched, half.To)
					}
					dist[half.To] = nd
					h.Push(half.To, nd)
				}
			}
		}
		for _, x := range touched {
			dist[x] = math.Inf(1)
		}
	}
	return ix
}

// query evaluates the 2-hop merge-join over the rank-sorted labels of u
// and v.
func (ix *Index) query(u, v graph.NodeID) float64 {
	a, b := ix.labels[u], ix.labels[v]
	best := math.Inf(1)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].rank < b[j].rank:
			i++
		case a[i].rank > b[j].rank:
			j++
		default:
			if d := a[i].dist + b[j].dist; d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// Query returns the exact shortest distance between u and v (+Inf if
// disconnected).
func (ix *Index) Query(u, v graph.NodeID) float64 {
	if u == v {
		return 0
	}
	return ix.query(u, v)
}

// LabelEntries returns the total number of label entries — the index-size
// measure of the PLL-vs-pyramids ablation.
func (ix *Index) LabelEntries() int {
	total := 0
	for _, ls := range ix.labels {
		total += len(ls)
	}
	return total
}

// MemoryBytes estimates the resident size of the labeling.
func (ix *Index) MemoryBytes() int64 {
	return int64(ix.LabelEntries())*12 + int64(len(ix.labels))*24
}
