package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anc/internal/decay"
	"anc/internal/gen"
	"anc/internal/graph"
	"anc/internal/similarity"
)

// refSigma computes σ on every edge and |N_ε| of every node from the
// Section IV-B definition over the whole graph and the store's current
// anchored activeness — numerators over graph.CommonNeighbors of the
// edge's endpoints, weighted degrees in adjacency order.
func refSigma(st *similarity.Store) (sigma []float64, cnt []int) {
	g, act := st.Graph(), st.Activeness()
	sum := make([]float64, g.N())
	for v := range sum {
		for _, h := range g.Neighbors(graph.NodeID(v)) {
			sum[v] += act.Anchored(h.Edge)
		}
	}
	sigma, cnt = make([]float64, g.M()), make([]int, g.N())
	for e := range sigma {
		u, v := g.Endpoints(graph.EdgeID(e))
		num := 0.0
		g.CommonNeighbors(u, v, func(_ graph.NodeID, eu, ev graph.EdgeID) {
			num += act.Anchored(eu) + act.Anchored(ev)
		})
		if den := sum[u] + sum[v]; den > 0 {
			sigma[e] = num / den
		}
		if sigma[e] >= st.Config().Epsilon {
			cnt[u]++
			cnt[v]++
		}
	}
	return sigma, cnt
}

// refReinforce returns the anchored S that rounds passes of local
// reinforcement over edges, in order, leave on st: the rules of Section
// IV-B over refSigma's σ and node types, written out apart from the store.
func refReinforce(st *similarity.Store, edges []graph.EdgeID, rounds int) []float64 {
	g, cfg := st.Graph(), st.Config()
	sigma, cnt := refSigma(st)
	s := make([]float64, g.M())
	for e := range s {
		s[e] = st.Anchored(graph.EdgeID(e))
	}
	delta := func(e graph.EdgeID, u, v graph.NodeID) float64 {
		deg := float64(g.Degree(u))
		core := cnt[u] >= cfg.Mu
		pcore := !core && g.Degree(u) >= cfg.Mu
		var af, tf, wsf float64
		if core || pcore {
			af = s[e] * sigma[e] / deg
			g.CommonNeighbors(u, v, func(_ graph.NodeID, eu, ev graph.EdgeID) {
				tf += math.Sqrt(s[eu]*s[ev]) * sigma[eu] / deg
			})
		}
		if !core {
			g.ExclusiveNeighbors(u, v, func(_ graph.NodeID, ew graph.EdgeID) {
				wsf += s[ew] * sigma[ew] / deg
			})
		}
		switch {
		case core:
			return af + tf
		case pcore:
			return af + tf - wsf
		default:
			return -wsf
		}
	}
	gf := st.Clock().G()
	lo, hi := cfg.SMin/gf, cfg.SMax/gf
	for r := 0; r < rounds; r++ {
		for _, e := range edges {
			u, v := g.Endpoints(e)
			x := s[e] + (delta(e, u, v) + delta(e, v, u))
			switch {
			case math.IsNaN(x), x < lo:
				x = lo
			case x > hi:
				x = hi
			}
			s[e] = x
		}
	}
	return s
}

// sameS fails t unless st's anchored S equals want bit for bit.
func sameS(t *testing.T, what string, st *similarity.Store, want []float64) {
	t.Helper()
	for e, w := range want {
		if got := st.Anchored(graph.EdgeID(e)); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: S[%d] = %v, the definition gives %v", what, e, got, w)
		}
	}
}

// TestReinforcementMatchesDefinition holds reinforcement through the σ memo
// to a reference that computes σ and the node types from the definition
// over the whole graph, bit for bit: New's S₀ rounds, and every checked
// Flush (ANCOR) or Snapshot (ANCF) of a stream mixing per-op and batched
// ingest with frequent rescales, serial and Parallel — including a flush
// whose only activeness write since the last one is a rescale, and the
// first flush of a network just loaded from a snapshot.
func TestReinforcementMatchesDefinition(t *testing.T) {
	g := gen.PlantedPartition([]int{16, 16, 16, 16}, 0.35, 0.04, rand.New(rand.NewSource(7))).Graph
	all := make([]graph.EdgeID, g.M())
	for e := range all {
		all[e] = graph.EdgeID(e)
	}
	for _, m := range []Method{ANCOR, ANCF} {
		for _, par := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/parallel=%v", m, par), func(t *testing.T) {
				o := options(m)
				o.Pyramid.Parallel = par
				o.RescaleEvery = 97
				rounds := 1
				if m == ANCF {
					rounds = o.Rep
				}

				fresh, err := similarity.New(g, decay.NewClock(o.Lambda), 1, o.Similarity)
				if err != nil {
					t.Fatal(err)
				}
				want := refReinforce(fresh, all, o.Rep)
				nw, err := New(g, o)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { nw.Close() }()
				sameS(t, "New", nw.sim, want)

				// checked flushes nw's pending edges as the method does and
				// holds the result to the reference.
				checked := func(what string) {
					t.Helper()
					want := refReinforce(nw.sim, nw.pending, rounds)
					if err := nw.Snapshot(); err != nil {
						t.Fatal(err)
					}
					sameS(t, what, nw.sim, want)
				}
				rng := rand.New(rand.NewSource(8))
				now := 0.0
				for step := 0; step < 150; step++ {
					// Mostly batches, so some checks see only batched ingest
					// since the last one.
					size := 24
					if step%5 == 0 {
						size = 1
					}
					batch := make([]Activation, size)
					for i := range batch {
						now += 0.02
						batch[i] = Activation{Edge: graph.EdgeID(rng.Intn(g.M())), T: now}
					}
					if len(batch) == 1 {
						err = nw.Activate(batch[0].Edge, batch[0].T)
					} else {
						err = nw.ActivateBatch(batch)
					}
					if err != nil {
						t.Fatal(err)
					}
					if step%3 != 2 {
						continue
					}
					if len(nw.pending) == 0 {
						// ANCOR's batch-end flush took them: re-pend the
						// batch, whose endpoints' memos that flush left fresh.
						for _, a := range batch {
							nw.addPending(a.Edge)
						}
					}
					checked(fmt.Sprintf("step %d", step))
					if step%9 == 8 {
						// A rescale is the only activeness write before this
						// flush of the same edges.
						for _, a := range batch {
							nw.addPending(a.Edge)
						}
						nw.clock.Rescale()
						checked(fmt.Sprintf("step %d, after a rescale", step))
					}
				}

				var buf bytes.Buffer
				if err := nw.Save(&buf); err != nil {
					t.Fatal(err)
				}
				got, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				nw.Close()
				nw = got
				for e := 0; e < g.M(); e += 3 {
					nw.addPending(graph.EdgeID(e))
				}
				checked("the first flush after Load")
			})
		}
	}
}
