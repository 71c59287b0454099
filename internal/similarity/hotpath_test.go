package similarity

import (
	"math/rand"
	"testing"

	"anc/internal/graph"
)

var sinkF float64

// TestHotPathAllocs: the similarity kernels of ingest and reinforcement
// run allocation-free on a sized graph (4,096 nodes, ~20 k edges) — the
// per-activation impact (per-op and batched, with rescales inside the
// measured loop), the local reinforcement with the memo refresh of both
// trigger nodes each activation makes stale, and a node's memo refresh.
func TestHotPathAllocs(t *testing.T) {
	st, g := benchStore(t, 4096, 16384)
	st.Clock().SetRescaleEvery(64)
	rng := rand.New(rand.NewSource(3))
	tick := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		e := graph.EdgeID(rng.Intn(g.M()))
		tick += 1e-3
		st.ActivateNoReinforce(e, tick)
		st.BumpNoReinforce(e)
		sinkF += st.Reinforce(e)
		st.RefreshNodeSigma(graph.NodeID(rng.Intn(g.N())))
	}); n != 0 {
		t.Errorf("similarity kernels: %v allocs/op, want 0", n)
	}
}
