package cluster

import (
	"math/bits"
	"slices"

	"anc/internal/graph"
	"anc/internal/pyramid"
)

// Repairer repairs a power clustering after a known set of vote flips
// instead of recomputing it, at a cost bounded by the clusters the flips
// touch. It carries the scratch one repair needs, reused across calls so
// only the published result allocates. The zero value is ready to use; a
// Repairer belongs to one writer and serves one graph.
//
// # Why a repair can be exact
//
// Orient every surviving edge from its lower to its higher DegreePos. A node
// with a surviving in-edge is absorbed before Power's scan reaches it, and a
// node without one never is, so the cluster roots — Clusters[id][0] — are
// exactly the sources of that DAG. After Power has processed its first i
// roots the labelled set is everything reachable from them, which is closed
// under reachability; the search from root i+1 therefore collects exactly
// the nodes it reaches that no earlier root does. Hence
//
//	root(x) = the minimum-position source among x's ancestors
//	        = x                                  if no surviving in-edge
//	        = min over in-neighbours u of root(u)  otherwise,
//
// cluster IDs number the roots by position, and a cluster's member order is
// the pop order of the stack search from its root restricted to the nodes
// carrying that root. The recurrence is repaired by a position-ordered
// worklist seeded at the head of every flipped edge (phase A); a member list
// depends only on its member set and the surviving edges inside it, so only
// clusters that gained or lost a node, or hold both ends of a flipped edge,
// are dirty (phase B); the result is laid out like Power's, one slab in ID
// order, the clean clusters copied and the dirty ones searched again
// (phase C). What is left of n is one copy of the members and, when a node
// changed cluster, of the labels: no edge is scanned and no vote read
// outside the dirty clusters.
type Repairer struct {
	rootOf   []graph.NodeID // new root of a node whose root changed, else -1
	movedSet []graph.NodeID // the nodes with rootOf set, in position order
	queue    []uint64       // phase A's worklist: a bitset over rank positions
	seen     stampSet       // nodes visited by a phase-B search
	dirtyPos []int32        // rank positions of the dirty roots
	born     []graph.NodeID // moved nodes that became roots, in position order
	remap    []int32        // previous cluster ID -> new ID, -1 for a dead root

	stack              []graph.NodeID
	dirtyOld, dirtyNew []int32
}

// Repair returns the power clustering of ix at level — byte for byte what
// Power(ix, level) returns — given prev, the power clustering before the
// last vote changes, and flips, a superset of the edges whose pass state at
// level differs from the one prev was computed from (repeats allowed). The
// result shares prev's Labels when no node changed cluster, and is prev
// itself when no cluster changed at all. dirtyOld and dirtyNew list, in ID
// order, the clusters of prev and of the result outside which the two are
// member-for-member equal; they are scratch, valid until the next call.
//
// The repair is exact whatever share of the graph is dirty; only its cost
// grows with that share.
func (r *Repairer) Repair(ix *pyramid.Index, level int, prev *Clustering, flips []graph.EdgeID) (cur *Clustering, dirtyOld, dirtyNew []int32) {
	g := ix.Graph()
	rank, pos := g.DegreeRank(), g.DegreePos()
	min := ix.MinSupport()
	r.begin(g.N())
	oldRoot := func(x graph.NodeID) graph.NodeID { return prev.Clusters[prev.Labels[x]][0] }
	root := func(x graph.NodeID) graph.NodeID {
		if c := r.rootOf[x]; c >= 0 {
			return c
		}
		return oldRoot(x)
	}

	// Phase A: re-derive root(x) in position order, starting where an
	// in-edge appeared or vanished and following out-edges only from nodes
	// whose root changed. Pushes go to higher positions only, so one forward
	// sweep over the bitset pops every node once, after all its
	// in-neighbours are final.
	queued, first := 0, len(r.queue)
	push := func(x graph.NodeID) {
		w, b := int(pos[x]>>6), uint64(1)<<(pos[x]&63)
		if r.queue[w]&b == 0 {
			r.queue[w] |= b
			queued++
			if w < first {
				first = w
			}
		}
	}
	for _, e := range flips {
		u, v := g.Endpoints(e)
		if pos[u] > pos[v] {
			v = u
		}
		push(v)
	}
	for w := first; queued > 0; w++ {
		for r.queue[w] != 0 {
			b := bits.TrailingZeros64(r.queue[w])
			r.queue[w] &^= 1 << b
			queued--
			x := rank[w<<6|b]
			nr := x
			for _, h := range g.Neighbors(x) {
				if pos[h.To] < pos[x] && ix.Votes(h.Edge, level) >= min {
					if c := root(h.To); nr == x || pos[c] < pos[nr] {
						nr = c
					}
				}
			}
			if nr == oldRoot(x) {
				continue
			}
			r.rootOf[x] = nr
			r.movedSet = append(r.movedSet, x)
			for _, h := range g.Neighbors(x) {
				if pos[x] < pos[h.To] && ix.Votes(h.Edge, level) >= min {
					push(h.To)
				}
			}
		}
	}

	// Phase B: the dirty roots, by position.
	died := 0
	for _, x := range r.movedSet {
		r.dirtyPos = append(r.dirtyPos, pos[oldRoot(x)], pos[r.rootOf[x]])
		if r.rootOf[x] == x {
			r.born = append(r.born, x)
		}
		if oldRoot(x) == x {
			died++
		}
	}
	for _, e := range flips {
		u, v := g.Endpoints(e)
		if c := root(u); c == root(v) {
			r.dirtyPos = append(r.dirtyPos, pos[c])
		}
	}
	slices.Sort(r.dirtyPos)
	r.dirtyPos = slices.Compact(r.dirtyPos)
	if len(r.dirtyPos) == 0 {
		return prev, nil, nil // the flips changed no cluster
	}

	// Phase C: lay the clusters out as Power does — one slab in ID order,
	// carved into cap-limited lists — copying the clean ones and searching
	// the dirty ones again. IDs number the roots by position, so the new
	// order is a merge of the previous roots, minus the dead, with the born
	// ones; r.dirtyPos is in the same order and is consumed alongside.
	slab := make([]graph.NodeID, 0, g.N())
	clusters := make([][]graph.NodeID, 0, len(prev.Clusters)+len(r.born)-died)
	r.remap = slices.Grow(r.remap[:0], len(prev.Clusters))[:len(prev.Clusters)]
	search := func(x graph.NodeID) {
		// Power's stack search from x, restricted to the nodes x collects.
		r.dirtyNew = append(r.dirtyNew, int32(len(clusters)))
		a := len(slab)
		r.seen.add(x)
		r.stack = append(r.stack, x)
		for len(r.stack) > 0 {
			y := r.stack[len(r.stack)-1]
			r.stack = r.stack[:len(r.stack)-1]
			slab = append(slab, y)
			for _, h := range g.Neighbors(y) {
				if pos[y] < pos[h.To] && !r.seen.has(h.To) && root(h.To) == x && ix.Votes(h.Edge, level) >= min {
					r.seen.add(h.To)
					r.stack = append(r.stack, h.To)
				}
			}
		}
		clusters = append(clusters, slab[a:len(slab):len(slab)])
	}
	b, d := 0, 0
	for id, members := range prev.Clusters {
		x := members[0]
		for ; b < len(r.born) && pos[r.born[b]] < pos[x]; b++ {
			search(r.born[b])
			d++
		}
		dirty := d < len(r.dirtyPos) && r.dirtyPos[d] == pos[x]
		if dirty {
			r.dirtyOld = append(r.dirtyOld, int32(id))
			d++
		}
		r.remap[id] = int32(len(clusters))
		switch {
		case r.rootOf[x] >= 0: // the root died, its members all moved
			r.remap[id] = -1
		case dirty:
			search(x)
		default:
			a := len(slab)
			slab = append(slab, members...)
			clusters = append(clusters, slab[a:len(slab):len(slab)])
		}
	}
	for ; b < len(r.born); b++ {
		search(r.born[b])
	}
	labels := prev.Labels
	if len(r.movedSet) > 0 {
		labels = make([]int32, len(prev.Labels))
		for v, id := range prev.Labels {
			labels[v] = r.remap[id]
		}
		for _, id := range r.dirtyNew {
			for _, y := range clusters[id] {
				labels[y] = id
			}
		}
	}
	return &Clustering{Labels: labels, Clusters: clusters}, r.dirtyOld, r.dirtyNew
}

// begin sizes the scratch for an n-node graph and empties it. rootOf is
// cleared through the previous repair's moved nodes.
func (r *Repairer) begin(n int) {
	if len(r.rootOf) != n {
		r.rootOf, r.movedSet = make([]graph.NodeID, n), r.movedSet[:0]
		for i := range r.rootOf {
			r.rootOf[i] = -1
		}
		r.queue = make([]uint64, (n+63)/64)
	}
	for _, x := range r.movedSet {
		r.rootOf[x] = -1
	}
	r.seen.reset(n)
	r.movedSet, r.dirtyPos, r.born = r.movedSet[:0], r.dirtyPos[:0], r.born[:0]
	r.dirtyOld, r.dirtyNew = r.dirtyOld[:0], r.dirtyNew[:0]
}
