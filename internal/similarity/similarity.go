// Package similarity implements Section IV-B/C of the paper: the active
// similarity σ, active neighbor sets and node types (core / p-core /
// periphery), the local reinforcement process (direct consolidation, triadic
// consolidation, wedge stretch), and the maintained similarity function S_t
// whose inverse 1/S_t is the edge weight of the distance metric M_t.
//
// All dynamic quantities are kept *anchored* under the global decay factor
// (package decay): activeness and S_t are PosM, so their anchored values
// only change on activations and absorb ×g at batched rescales. The active
// similarity σ is NeuM — a pure ratio in which g cancels (Lemma 3).
//
// σ, the active neighbor counts |N_ε| and the node types are functions of
// the current activeness, and local reinforcement is their only reader. So
// the store keeps no incremental σ state: an activation costs O(1) (the
// activeness bump and S's unit impact, against Lemma 5's O(deg u + deg v)
// σ maintenance), and reinforcement computes what it reads. A per-node memo
// stamped with an activeness-write counter holds σ on the node's incident
// edges and its |N_ε|; a stale node is refreshed from the edge activeness
// alone, in a canonical summation order, at cost Σ_{x∈N(u)} (deg u + deg x).
// Between two activeness writes — all Rep rounds of an initialization or a
// snapshot, one whole flush — each trigger node is refreshed at most once,
// and the bits read depend only on the activeness, not on the history that
// produced it, so a restored store reinforces exactly as its original.
package similarity

import (
	"fmt"
	"math"

	"anc/internal/decay"
	"anc/internal/graph"
)

// NodeType classifies a node by its active neighbor set (Section IV-B).
type NodeType uint8

const (
	// Core nodes have at least μ active neighbors and lead communities.
	Core NodeType = iota
	// PCore nodes are not cores but have degree ≥ μ: potential cores.
	PCore
	// Periphery nodes have degree < μ and can never become cores.
	Periphery
)

// String returns the paper's name for the node type.
func (t NodeType) String() string {
	switch t {
	case Core:
		return "core"
	case PCore:
		return "p-core"
	case Periphery:
		return "periphery"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// Config holds the similarity parameters of Table II.
type Config struct {
	// Epsilon is the active-similarity threshold ε defining active
	// neighbor sets N_ε(v).
	Epsilon float64
	// Mu is the core threshold μ: |N_ε(v)| ≥ μ makes v a core.
	Mu int
	// SMin and SMax clamp the maintained similarity so the reciprocal
	// edge weight 1/S stays finite and positive under wedge stretch.
	SMin, SMax float64
}

// DefaultConfig mirrors the paper's defaults (ε and μ are graph-dependent;
// these are the mid-range values of Table II).
func DefaultConfig() Config {
	return Config{Epsilon: 0.4, Mu: 4, SMin: 1e-9, SMax: 1e12}
}

func (c *Config) validate() error {
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("similarity: epsilon %v outside [0,1]", c.Epsilon)
	}
	if c.Mu < 1 {
		return fmt.Errorf("similarity: mu %d < 1", c.Mu)
	}
	if !(c.SMin > 0) || !(c.SMax > c.SMin) {
		return fmt.Errorf("similarity: need 0 < SMin < SMax, got %v, %v", c.SMin, c.SMax)
	}
	return nil
}

// Store maintains the similarity function S_t on top of a fixed relation
// graph and a decay clock, and reads σ and the node types off the current
// activeness where reinforcement needs them.
type Store struct {
	g     *graph.Graph
	act   *decay.Activeness
	clock *decay.Clock
	cfg   Config

	s []float64 // anchored similarity S* per edge (PosM)

	// The σ memo. ver counts activeness writes; stamp[x] == ver means x was
	// refreshed since the last one, so σ on every edge incident to x and
	// cnt[x] = |N_ε(x)| are current. An edge's σ may be written from either
	// endpoint; both compute it the same way from the same activeness, so
	// the value a current endpoint reads is the same whichever wrote it.
	// The weighted degrees the refreshes divide by are memoized the same
	// way, so a hub's is summed once per version, not once per neighbor.
	ver    uint64
	stamp  []uint64  // per node: ver at its last refresh
	sigma  []float64 // σ per edge (NeuM: scale-free)
	cnt    []int32   // |N_ε(v)| per node
	sumVer []uint64  // per node: ver at which sum was computed
	sum    []float64 // anchored weighted degree per node (PosM)
}

// New builds a similarity store over g with the given clock and an initial
// uniform edge activeness (the paper's online methods use 1). The initial
// similarity is S_0 = 1 on every edge; apply Reinforce over all edges in
// repetitions (see core.Build) to fold structural cohesiveness into S_0.
func New(g *graph.Graph, clock *decay.Clock, initialActiveness float64, cfg Config) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st := &Store{
		g:      g,
		clock:  clock,
		cfg:    cfg,
		s:      make([]float64, g.M()),
		ver:    1,
		stamp:  make([]uint64, g.N()),
		sigma:  make([]float64, g.M()),
		cnt:    make([]int32, g.N()),
		sumVer: make([]uint64, g.N()),
		sum:    make([]float64, g.N()),
	}
	st.act = decay.NewActiveness(clock, g.N(), g.M(), initialActiveness, nil)
	for i := range st.s {
		st.s[i] = 1
	}
	clock.Register(st)
	return st, nil
}

// OnRescale implements decay.Rescalable. S is PosM and absorbs ×g. σ is
// NeuM, but the rescaled activeness gives it new last bits, so the memo
// goes stale like after any other activeness write.
func (st *Store) OnRescale(g float64) {
	for i := range st.s {
		st.s[i] *= g
	}
	st.ver++
}

// ExportState returns copies of the anchored similarity and activeness of
// every edge — the snapshot-persistence payload, anchored at the clock's
// anchor time, which the snapshot saves beside them.
func (st *Store) ExportState() (s, act []float64) {
	s = append([]float64(nil), st.s...)
	act = make([]float64, st.g.M())
	for e := range act {
		act[e] = st.act.Anchored(int32(e))
	}
	return s, act
}

// RestoreState overwrites the similarity and activeness state with saved
// values (anchored at the clock's current anchor). σ and the node types
// follow from the activeness when reinforcement next reads them.
func (st *Store) RestoreState(s, act []float64) {
	if len(s) != len(st.s) || len(act) != st.g.M() {
		panic("similarity: RestoreState length mismatch")
	}
	copy(st.s, s)
	st.act.Restore(act)
	st.ver++
}

// Graph returns the underlying relation graph.
func (st *Store) Graph() *graph.Graph { return st.g }

// Activeness returns the underlying activeness store.
func (st *Store) Activeness() *decay.Activeness { return st.act }

// Clock returns the decay clock.
func (st *Store) Clock() *decay.Clock { return st.clock }

// Config returns the parameters the store was built with.
func (st *Store) Config() Config { return st.cfg }

// Anchored returns the anchored similarity S*_t(e).
func (st *Store) Anchored(e graph.EdgeID) float64 { return st.s[e] }

// At returns the true similarity S_t(e) = S*_t(e) × g(t, t*).
func (st *Store) At(e graph.EdgeID) float64 { return st.s[e] * st.clock.G() }

// Weight returns the anchored reciprocal similarity 1/S*_t(e): the edge
// weight of the distance metric M_t as stored in the index. True distances
// are anchored distances divided by g (the metric is NegM, Lemma 6), which
// never changes shortest-path comparisons.
func (st *Store) Weight(e graph.EdgeID) float64 { return 1 / st.s[e] }

// Sigma returns the active similarity σ(u, v) of edge e, refreshing the
// memo of e's first endpoint if it is stale.
func (st *Store) Sigma(e graph.EdgeID) float64 {
	u, _ := st.g.Endpoints(e)
	st.memo(u)
	return st.sigma[e]
}

// NodeType classifies v as core, p-core or periphery, refreshing v's memo
// if it is stale.
func (st *Store) NodeType(v graph.NodeID) NodeType {
	st.memo(v)
	if int(st.cnt[v]) >= st.cfg.Mu {
		return Core
	}
	if st.g.Degree(v) >= st.cfg.Mu {
		return PCore
	}
	return Periphery
}

// ActivateNoReinforce advances the clock to t and applies the activation
// (e, t) to the activeness and, as a unit impact, to S, with no local
// reinforcement. It returns the new anchored weight 1/S*(e). The network's
// ingest goes through BumpNoReinforce; this one-call form remains for the
// benchmark's orchestration replica.
//
// Like the activeness (Equation 1), the similarity accrues a decayed unit
// impact per activation — "the similarity S_t(e) decays at the same ratio λ
// as the edge weight a_t(e)" (Section IV-C) — which is what lets the online
// method ANCO update the index on every activation even though it applies
// no further local reinforcement after initialization (Section VI). The
// reinforcement terms AF/TF/WSF are layered on top per method policy.
func (st *Store) ActivateNoReinforce(e graph.EdgeID, t float64) (newWeight float64) {
	st.act.Activate(e, t)
	st.ver++
	st.s[e] = st.clampAnchored(st.s[e] + 1/st.clock.G())
	return 1 / st.s[e]
}

// BumpNoReinforce applies one activation impact on e at the clock's
// current time without advancing the clock or counting toward the rescale
// period — the inner loop of ingest. The caller advances the clock per
// distinct timestamp and counts each activation with Clock.ActivatedN.
// Each impact is ActivateNoReinforce's arithmetic (one += 1/g, clamped).
func (st *Store) BumpNoReinforce(e graph.EdgeID) {
	st.act.Bump(e)
	st.ver++
	st.s[e] = st.clampAnchored(st.s[e] + 1/st.clock.G())
}

// RefreshEdgeNum does nothing: σ has no per-edge state to fold. It stays
// because the benchmark's orchestration replica still calls it.
func (st *Store) RefreshEdgeNum(graph.EdgeID) {}

// RefreshNodeSigma recomputes x's memo — σ on every edge incident to x and
// |N_ε(x)| — from scratch: it drops every memo first, so no neighbor's
// refresh is reused. Reinforcement refreshes on its own; the benchmark's
// orchestration replica times this kernel.
func (st *Store) RefreshNodeSigma(x graph.NodeID) {
	st.ver++
	st.refresh(x)
}

// memo refreshes x's memo if an activeness write made it stale.
func (st *Store) memo(x graph.NodeID) {
	if st.stamp[x] != st.ver {
		st.refresh(x)
	}
}

// refresh computes σ on every edge incident to x, and |N_ε(x)|, from the
// anchored activeness alone (Section IV-B), in a canonical order, so the
// bits depend on the activeness and not on how it was reached:
//
//	σ(u,v) = Σ_{w ∈ N(u)∩N(v)} (a(u,w) + a(v,w)) / (A(u) + A(v))
//
// with the numerator summed in graph.CommonNeighbors order over
// Endpoints(e) and each weighted degree A summed in adjacency order. The
// anchoring cancels in the ratio (Lemma 3). An edge to a neighbor already
// refreshed at this version keeps the σ that refresh wrote. Cost at most
// Σ_{y∈N(x)} (deg x + deg y).
func (st *Store) refresh(x graph.NodeID) {
	ax := st.nodeSum(x)
	var n int32
	for _, h := range st.g.Neighbors(x) {
		if st.stamp[h.To] != st.ver {
			st.sigma[h.Edge] = st.sigmaOf(h.Edge, ax+st.nodeSum(h.To))
		}
		if st.sigma[h.Edge] >= st.cfg.Epsilon {
			n++
		}
	}
	st.cnt[x] = n
	st.stamp[x] = st.ver
}

// sigmaOf returns σ of edge e over the denominator den = A(u) + A(v).
func (st *Store) sigmaOf(e graph.EdgeID, den float64) float64 {
	if den <= 0 {
		return 0
	}
	u, v := st.g.Endpoints(e)
	num := 0.0
	st.g.CommonNeighbors(u, v, func(_ graph.NodeID, eu, ev graph.EdgeID) {
		num += st.act.Anchored(eu) + st.act.Anchored(ev)
	})
	return num / den
}

// nodeSum returns the anchored weighted degree A(x) = Σ_{y∈N(x)} a*(x,y),
// summed in adjacency order once per version.
func (st *Store) nodeSum(x graph.NodeID) float64 {
	if st.sumVer[x] != st.ver {
		sum := 0.0
		for _, h := range st.g.Neighbors(x) {
			sum += st.act.Anchored(h.Edge)
		}
		st.sum[x], st.sumVer[x] = sum, st.ver
	}
	return st.sum[x]
}

// Reinforce applies the local reinforcement of Section IV-B to the trigger
// edge e(u, v): for each trigger node the update rule selected by its node
// type combines direct consolidation AF, triadic consolidation TF and wedge
// stretch WSF. Both trigger nodes contribute deltas computed against the
// pre-update S values (symmetric, order-independent), and the result is
// clamped to [SMin, SMax]. The updated function remains PosM (Lemma 4)
// because every term is a product of PosM factors and scale-free σ values.
// It returns the new anchored weight 1/S*(e). Cost O(deg u + deg v), plus a
// memo refresh of each trigger node the activeness changed under since its
// last one.
func (st *Store) Reinforce(e graph.EdgeID) (newWeight float64) {
	u, v := st.g.Endpoints(e)
	delta := st.reinforceDelta(e, u, v) + st.reinforceDelta(e, v, u)
	st.s[e] = st.clampAnchored(st.s[e] + delta)
	return 1 / st.s[e]
}

// reinforceDelta computes the contribution of trigger node u on edge
// e(u, v) without applying it.
func (st *Store) reinforceDelta(e graph.EdgeID, u, v graph.NodeID) float64 {
	deg := float64(st.g.Degree(u))
	if deg == 0 {
		return 0
	}
	typ := st.NodeType(u) // refreshes u's memo: σ below is current
	var af, tf, wsf float64
	if typ == Core || typ == PCore {
		// Direct consolidation: AF = F(e) σ(u,v) / deg(u).
		af = st.s[e] * st.sigma[e] / deg
		// Triadic consolidation over common neighbors.
		st.g.CommonNeighbors(u, v, func(w graph.NodeID, eu, ev graph.EdgeID) {
			tf += math.Sqrt(st.s[eu]*st.s[ev]) * st.sigma[eu] / deg
		})
	}
	if typ == Periphery || typ == PCore {
		// Wedge stretch over exclusive neighbors of u.
		st.g.ExclusiveNeighbors(u, v, func(w graph.NodeID, ew graph.EdgeID) {
			wsf += st.s[ew] * st.sigma[ew] / deg
		})
	}
	switch typ {
	case Core:
		return af + tf
	case Periphery:
		return -wsf
	default: // PCore
		return af + tf - wsf
	}
}

// clampAnchored clamps an anchored similarity into the configured range,
// expressed in anchored units (the clamp tracks the current decay scale so
// the bound applies to the true similarity).
func (st *Store) clampAnchored(s float64) float64 {
	g := st.clock.G()
	lo, hi := st.cfg.SMin/g, st.cfg.SMax/g
	switch {
	case math.IsNaN(s), s < lo:
		return lo
	case s > hi:
		return hi
	default:
		return s
	}
}
