// Package cluster implements the query side of Section V-B: evaluating the
// voting function H_l over the pyramids index, extracting clusters with
// even clustering (connected components of surviving edges) or power
// clustering (degree-ordered directed search — the paper's
// DirectedCluster), answering local cluster queries for a single node in
// output-proportional time (Lemma 9), and the zoom-in / zoom-out
// navigation of Problem 1.
package cluster

import (
	"slices"
	"sync"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

// Clustering is a partition of the node set: Labels[v] is the cluster ID of
// node v (dense, starting at 0), and Clusters lists the members of each
// cluster.
type Clustering struct {
	Labels   []int32
	Clusters [][]graph.NodeID
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Clusters) }

// SizesAtLeast returns how many clusters have at least minSize members —
// the paper treats clusters below 3 nodes as noise.
func (c *Clustering) SizesAtLeast(minSize int) int {
	n := 0
	for _, cl := range c.Clusters {
		if len(cl) >= minSize {
			n++
		}
	}
	return n
}

// Even reports the even clustering at the given granularity level: the
// connected components of the graph restricted to edges whose vote passes
// the θ·K support threshold. O(n + m) plus vote evaluation (Lemma 8): an
// edge is voted on at most once, from whichever endpoint the search pops
// first — by the time the other one pops, both are labelled.
func Even(ix *pyramid.Index, level int) *Clustering {
	g := ix.Graph()
	vote := ix.Voter(level)
	labels := make([]int32, g.N())
	for i := range labels {
		labels[i] = -1
	}
	slab := make([]graph.NodeID, 0, g.N())
	queue := make([]graph.NodeID, 0, g.N())
	count := 0
	for v := 0; v < g.N(); v++ {
		if labels[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[v] = id
		queue = append(queue, graph.NodeID(v))
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			slab = append(slab, x)
			for _, h := range g.Neighbors(x) {
				if labels[h.To] < 0 && vote.Keep(x, h.To, h.Edge) {
					labels[h.To] = id
					queue = append(queue, h.To)
				}
			}
		}
	}
	return &Clustering{Labels: labels, Clusters: carve(slab, labels, count)}
}

// carve cuts the member slab of a finished search into its clusters. Both
// searches emit a cluster's members contiguously and label them before
// moving on, so a cluster is a maximal run of one label. Every member list
// is a three-index sub-slice: a caller's append reallocates instead of
// writing into the next cluster. One allocation, whatever the count.
func carve(slab []graph.NodeID, labels []int32, count int) [][]graph.NodeID {
	clusters := make([][]graph.NodeID, count)
	for a := 0; a < len(slab); {
		id := labels[slab[a]]
		b := a + 1
		for b < len(slab) && labels[slab[b]] == id {
			b++
		}
		clusters[id] = slab[a:b:b]
		a = b
	}
	return clusters
}

// Power reports the power clustering (the paper's DirectedCluster) at the
// given level: surviving edges are directed from the higher-degree to the
// lower-degree endpoint (ties by smaller node ID first), nodes are scanned
// in that rank order, and each still-unclustered node absorbs every
// unclustered node reachable through directed surviving edges. Power
// clustering avoids the error amplification of even clustering: a single
// mis-voted edge cannot merge two whole clusters. The search walks the
// rank-directed lists (graph.Down), so it scans each of the m edges once,
// from its higher-ranked end. O(n + m) plus votes.
func Power(ix *pyramid.Index, level int) *Clustering {
	g := ix.Graph()
	vote := ix.Voter(level)
	labels := make([]int32, g.N())
	for i := range labels {
		labels[i] = -1
	}
	slab := make([]graph.NodeID, 0, g.N())
	stack := make([]graph.NodeID, 0, g.N())
	count := 0
	for _, v := range g.DegreeRank() {
		if labels[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[v] = id
		stack = append(stack, v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			slab = append(slab, x)
			for _, h := range g.Down(x) {
				if labels[h.To] < 0 && vote.Keep(x, h.To, h.Edge) {
					labels[h.To] = id
					stack = append(stack, h.To)
				}
			}
		}
	}
	return &Clustering{Labels: labels, Clusters: carve(slab, labels, count)}
}

// Local answers the local cluster query of Problem 1(2): the cluster
// containing v at the given level, computed by searching outward from v
// over surviving edges only. The cost is proportional to the total degree
// of the reported nodes (Lemma 9), independent of the graph size. The
// result is sorted by node ID. Local semantics match Even: Local(ix, l, v)
// equals the Even cluster of v.
func Local(ix *pyramid.Index, level int, v graph.NodeID) []graph.NodeID {
	g := ix.Graph()
	vote := ix.Voter(level)
	s := localPool.Get().(*localScratch)
	s.seen.reset(g.N())
	s.members = s.members[:0]
	s.seen.add(v)
	s.queue = append(s.queue, v)
	for len(s.queue) > 0 {
		x := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.members = append(s.members, x)
		for _, h := range g.Neighbors(x) {
			if !s.seen.has(h.To) && vote.Keep(x, h.To, h.Edge) {
				s.seen.add(h.To)
				s.queue = append(s.queue, h.To)
			}
		}
	}
	members := slices.Clone(s.members)
	localPool.Put(s)
	slices.Sort(members)
	return members
}

// localScratch is the working state of one Local query.
type localScratch struct {
	seen           stampSet
	queue, members []graph.NodeID
}

// localPool hands each query its own scratch: readers run concurrently
// under the facade's shared lock, so the scratch cannot live on the index.
var localPool = sync.Pool{New: func() any { return new(localScratch) }}

// stampSet is a set of node IDs that empties in O(1): x is a member while
// at[x] holds the current epoch. A search that reuses one pays for the nodes
// it visits, not for clearing n marks — what keeps Local proportional to
// its output (Lemma 9) and Repair to the clusters it touches.
type stampSet struct {
	epoch uint32
	at    []uint32
}

// reset empties the set and makes room for IDs below n.
func (s *stampSet) reset(n int) {
	if len(s.at) < n {
		s.at, s.epoch = make([]uint32, n), 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of 2³² resets ago would read as current
		clear(s.at)
		s.epoch = 1
	}
}

func (s *stampSet) has(x graph.NodeID) bool { return s.at[x] == s.epoch }

func (s *stampSet) add(x graph.NodeID) { s.at[x] = s.epoch }

// View is a stateful navigator over the granularity hierarchy, providing
// the repeated zoom-in / zoom-out operations of Problem 1.
type View struct {
	ix    *pyramid.Index
	level int
}

// NewView opens a navigator at the Θ(√n)-cluster granularity.
func NewView(ix *pyramid.Index) *View {
	return &View{ix: ix, level: pyramid.SqrtLevel(ix.Graph().N())}
}

// NewViewAt opens a navigator at an explicit level, clamped to the valid
// range [1, Levels].
func NewViewAt(ix *pyramid.Index, level int) *View {
	v := &View{ix: ix, level: level}
	v.clamp()
	return v
}

func (v *View) clamp() {
	if v.level < 1 {
		v.level = 1
	}
	if v.level > v.ix.Levels() {
		v.level = v.ix.Levels()
	}
}

// Level returns the current granularity level.
func (v *View) Level() int { return v.level }

// ZoomIn moves to a finer granularity (more, smaller clusters). Returns
// false if already at the finest level.
func (v *View) ZoomIn() bool {
	if v.level >= v.ix.Levels() {
		return false
	}
	v.level++
	return true
}

// ZoomOut moves to a coarser granularity. Returns false at the coarsest
// level.
func (v *View) ZoomOut() bool {
	if v.level <= 1 {
		return false
	}
	v.level--
	return true
}

// Clusters reports the power clustering at the current level.
func (v *View) Clusters() *Clustering { return Power(v.ix, v.level) }

// ClusterOf reports the local cluster of node x at the current level.
func (v *View) ClusterOf(x graph.NodeID) []graph.NodeID { return Local(v.ix, v.level, x) }

// SmallestClusterOf answers Problem 1(2): the smallest cluster containing
// x, i.e. its local cluster at the finest granularity. The returned View is
// positioned there so the caller can zoom out repeatedly.
func SmallestClusterOf(ix *pyramid.Index, x graph.NodeID) ([]graph.NodeID, *View) {
	v := NewViewAt(ix, ix.Levels())
	return v.ClusterOf(x), v
}
