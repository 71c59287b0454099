// Package pyramid implements the distance index of Section V: a constant
// number k of pyramids, each a suite of ⌈log₂ n⌉ Voronoi partitions with
// 2^l uniformly random seeds at granularity level l, built by one
// multi-source Dijkstra per partition and maintained incrementally under
// edge-weight changes with the bounded update algorithms (Algorithms 1–3).
//
// All stored distances are anchored: the true distance is the stored value
// divided by the global decay factor (the metric is NegM, Lemma 10), so a
// batched rescale multiplies every stored distance by 1/g and never changes
// any shortest-path tree or Voronoi assignment.
package pyramid

import (
	"math"

	"anc/internal/graph"
)

// Partition is one Voronoi partition: a seed set, the seed assignment of
// every node, the (anchored) distance of every node to its seed, and the
// shortest-path forest rooted at the seeds, stored as parent pointers only.
// Algorithm 3 enumerates an orphaned subtree by scanning each orphaned
// node's adjacency for neighbours whose parent it is — Σ deg over the
// subtree, the cost the boundary seeding pays for the same nodes anyway
// (Lemma 12). The Dijkstra working state lives in a scratch shared per
// worker (see pool.go), not in the partition.
type Partition struct {
	g       *graph.Graph
	weights []float64 // shared with the owning Index; indexed by edge ID
	seeds   []graph.NodeID

	seedOf []graph.NodeID // seed of v; None if unreachable from all seeds
	dist   []float64      // anchored dist(seed, v); +Inf if unreachable
	parent []graph.NodeID // SPT parent; None for seeds and unreachable
}

// newPartition builds a Voronoi partition over g for the given seed set,
// using the shared weight slice and the caller's scratch.
func newPartition(g *graph.Graph, weights []float64, seeds []graph.NodeID, s *scratch) *Partition {
	n := g.N()
	p := &Partition{
		g:       g,
		weights: weights,
		seeds:   seeds,
		seedOf:  make([]graph.NodeID, n),
		dist:    make([]float64, n),
		parent:  make([]graph.NodeID, n),
	}
	p.rebuild(s)
	return p
}

// rebuild recomputes the whole partition with one multi-source Dijkstra.
func (p *Partition) rebuild(s *scratch) {
	n := p.g.N()
	for v := 0; v < n; v++ {
		p.seedOf[v] = graph.None
		p.dist[v] = math.Inf(1)
		p.parent[v] = graph.None
	}
	s.heap.Reset()
	for _, sd := range p.seeds {
		p.dist[sd] = 0
		p.seedOf[sd] = sd
		s.heap.Push(sd, 0)
	}
	for s.heap.Len() > 0 {
		x, d := s.heap.Pop()
		if d > p.dist[x] {
			continue
		}
		for _, h := range p.g.Neighbors(x) {
			nd := d + p.weights[h.Edge]
			if nd < p.dist[h.To] {
				p.relink(h.To, graph.NodeID(x))
				p.dist[h.To] = nd
				p.seedOf[h.To] = p.seedOf[x]
				s.heap.Push(h.To, nd)
			}
		}
	}
}

// relink sets the SPT parent of a to b; graph.None detaches a. The forest
// is the parent array alone, so this is the whole of it.
//
//anclint:hotpath
func (p *Partition) relink(a, b graph.NodeID) { p.parent[a] = b }

// Seeds returns the seed set (aliases internal storage; do not modify).
func (p *Partition) Seeds() []graph.NodeID { return p.seeds }

// Seed returns the seed of v, or graph.None if v is unreachable.
func (p *Partition) Seed(v graph.NodeID) graph.NodeID { return p.seedOf[v] }

// Dist returns the anchored distance from v to its seed (+Inf if
// unreachable).
func (p *Partition) Dist(v graph.NodeID) float64 { return p.dist[v] }

// Parent returns v's parent in the shortest-path forest.
func (p *Partition) Parent(v graph.NodeID) graph.NodeID { return p.parent[v] }

// probe is Algorithm 2: it re-evaluates a's distance via its neighbor b
// and adopts b's seed if that improves a. Returns true if a changed.
//
//anclint:hotpath
func (p *Partition) probe(s *scratch, a, b graph.NodeID, e graph.EdgeID) bool {
	if math.IsInf(p.dist[b], 1) {
		return false
	}
	d := p.dist[b] + p.weights[e]
	if p.dist[a] > d {
		s.markChanged(a, p.seedOf[a])
		p.relink(a, b)
		p.dist[a] = d
		p.seedOf[a] = p.seedOf[b]
		return true
	}
	return false
}

// applyBatch repairs the partition after the weights of a set of distinct
// edges changed (the shared weight slice already holds the new values;
// olds[i] is the previous weight of edges[i]). It is the batched
// generalization of Algorithms 1 and 3:
//
//  1. Every increased tree edge orphans the subtree hanging below it
//     (distance reset to +Inf), exactly as in the single-edge Algorithm 3.
//  2. One repair Dijkstra is seeded with (a) the outside boundary of all
//     orphaned regions at their unchanged distances, and (b) the endpoints
//     of every decreased edge that improve via the cheaper edge
//     (Algorithm 2's probes).
//  3. The heap is relaxed to a fixpoint.
//
// Correctness follows the single-edge argument: every non-orphaned node's
// stored distance remains a valid upper bound (no path through it lost an
// edge or got more expensive without being orphaned), and every node whose
// true distance changed is reachable by a relaxation chain from a seeded
// node, so Dijkstra ordering restores the optimality certificate checked
// by validate. The cost is bounded by the union of the per-edge affected
// sets (Lemma 12) with overlapping regions relaxed once instead of once
// per edge — the amortization batched ingest is built on.
//
// It returns the nodes whose seed differs from the seed they entered the
// repair with, in first-touch order (aliases the scratch; valid until the
// scratch's next use). A node whose distance moved under an unchanged seed
// is not reported: votes are a pure function of seeds.
func (p *Partition) applyBatch(s *scratch, edges []graph.EdgeID, olds []float64) []graph.NodeID {
	s.begin()
	// Phase 1: orphan the subtree under every increased tree edge. An edge
	// already orphaned by an earlier, enclosing subtree has parent None on
	// both sides by the time it is examined, so nesting is handled by the
	// tree-edge test itself. A neighbour whose parent is x is a child of x:
	// the subtree is walked through adjacency, no children lists needed.
	for i, e := range edges {
		if p.weights[e] <= olds[i] {
			continue
		}
		u, v := p.g.Endpoints(e)
		var o graph.NodeID
		switch {
		case p.parent[v] == u:
			o = v
		case p.parent[u] == v:
			o = u
		default:
			continue // not on this partition's forest: nothing affected
		}
		s.stack = append(s.stack[:0], o)
		for len(s.stack) > 0 {
			x := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			for _, h := range p.g.Neighbors(x) {
				if p.parent[h.To] == x {
					s.stack = append(s.stack, h.To)
				}
			}
			s.sub = append(s.sub, x)
			s.markChanged(x, p.seedOf[x])
			p.relink(x, graph.None)
			p.dist[x] = math.Inf(1)
			p.seedOf[x] = graph.None
		}
	}
	// Phase 2a: seed the repair with the outside boundary of the orphaned
	// regions. Orphaned nodes carry +Inf by now, so finiteness alone
	// identifies the boundary.
	for _, x := range s.sub {
		for _, h := range p.g.Neighbors(x) {
			if !math.IsInf(p.dist[h.To], 1) {
				s.heap.Push(h.To, p.dist[h.To])
			}
		}
	}
	// Phase 2b: probe both endpoints of every decreased edge.
	for i, e := range edges {
		if p.weights[e] >= olds[i] {
			continue
		}
		u, v := p.g.Endpoints(e)
		if p.probe(s, u, v, e) {
			s.heap.Push(u, p.dist[u])
		}
		if p.probe(s, v, u, e) {
			s.heap.Push(v, p.dist[v])
		}
	}
	// Phase 3: relax to fixpoint.
	for s.heap.Len() > 0 {
		x, d := s.heap.Pop()
		if d > p.dist[x] {
			continue
		}
		for _, h := range p.g.Neighbors(x) {
			if p.probe(s, h.To, graph.NodeID(x), h.Edge) {
				s.heap.Push(h.To, p.dist[h.To])
			}
		}
	}
	moved := s.changed[:0]
	for _, x := range s.changed {
		if p.seedOf[x] != s.entrySeed[x] {
			moved = append(moved, x)
		}
	}
	s.changed = moved
	return moved
}

// onRescale multiplies every stored distance by the NegM factor 1/g.
// Assignments and tree structure are unchanged (Lemma 10).
func (p *Partition) onRescale(invG float64) {
	for i := range p.dist {
		p.dist[i] *= invG
	}
}

// validate checks the full optimality certificate of the partition:
// seeds at distance 0, every non-seed supported by its parent edge, no
// relaxable edge. It returns a description of the first violation, or ""
// if the partition is a correct Voronoi partition for the current weights.
// Exposed for tests and the paper's invariants; O(n + m).
func (p *Partition) validate() string {
	n := p.g.N()
	isSeed := make([]bool, n)
	for _, s := range p.seeds {
		isSeed[s] = true
	}
	const eps = 1e-6
	for v := 0; v < n; v++ {
		x := graph.NodeID(v)
		switch {
		case isSeed[x]:
			if p.dist[x] != 0 || p.seedOf[x] != x || p.parent[x] != graph.None {
				return "seed state corrupt"
			}
		case math.IsInf(p.dist[x], 1):
			if p.seedOf[x] != graph.None || p.parent[x] != graph.None {
				return "unreachable node has seed or parent"
			}
		default:
			pa := p.parent[x]
			if pa == graph.None {
				return "reachable non-seed without parent"
			}
			e := p.g.FindEdge(x, pa)
			if e == graph.None {
				return "parent not adjacent"
			}
			if math.Abs(p.dist[x]-(p.dist[pa]+p.weights[e])) > eps*(1+math.Abs(p.dist[x])) {
				return "distance unsupported by parent edge"
			}
			if p.seedOf[x] != p.seedOf[pa] {
				return "seed differs from parent seed"
			}
		}
	}
	for e := 0; e < p.g.M(); e++ {
		u, v := p.g.Endpoints(graph.EdgeID(e))
		w := p.weights[e]
		if !math.IsInf(p.dist[u], 1) && p.dist[v] > p.dist[u]+w+eps*(1+p.dist[u]) {
			return "relaxable edge (v side)"
		}
		if !math.IsInf(p.dist[v], 1) && p.dist[u] > p.dist[v]+w+eps*(1+p.dist[v]) {
			return "relaxable edge (u side)"
		}
	}
	return ""
}
