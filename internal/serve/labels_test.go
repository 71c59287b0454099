package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"anc"
)

// testLabels is a non-dense, non-monotone label table over the barbell's
// ten nodes: dense ID i is known on the wire as testLabels[i]. It reuses
// small integers as labels of other nodes (label 0 is dense 9, label 7 is
// dense 1) so a translation applied in the wrong direction — or not at
// all — cannot pass by accident, and includes a label past int32.
var testLabels = []int{1000, 7, 42, 5, 999999, 3, 64, 12, 4000000000, 0}

func testLabelTable() map[int64]int32 {
	ids := map[int64]int32{}
	for dense, label := range testLabels {
		ids[int64(label)] = int32(dense)
	}
	return ids
}

// The dense-side expectation helpers: what a dense answer from the
// in-process facade looks like on a wire that speaks testLabels.
func labelMembers(nodes []int) []int {
	out := make([]int, len(nodes))
	for i, v := range nodes {
		out[i] = testLabels[v]
	}
	return out
}

func labelClusters(cs [][]int) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = labelMembers(c)
	}
	return out
}

func labelRank(r anc.TieRankResult) anc.TieRankResult {
	relabel := func(entries []anc.RankEntry) []anc.RankEntry {
		out := make([]anc.RankEntry, len(entries))
		for i, e := range entries {
			out[i] = anc.RankEntry{Node: testLabels[e.Node], Score: e.Score}
		}
		return out
	}
	r.Global = relabel(r.Global)
	for i, g := range r.Clusters {
		r.Clusters[i] = relabel(g)
	}
	return r
}

// TestServerLabelTranslation drives every op that carries node IDs in
// either direction through a server given a label table, and checks each
// reply against an identically fed in-process twin queried with dense IDs.
func TestServerLabelTranslation(t *testing.T) {
	served := anc.NewConcurrent(testNetwork(t))
	twin := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, served, Config{Labels: testLabelTable()})
	defer shutdownServer(t, s)
	if s.labels == nil {
		t.Fatal("non-identity label table installed no translation")
	}
	c := dialTest(t, s.Addr().String())

	// A burst on the bridge after the mixed stream pulls node 4 across: it
	// yields both cluster events on the bridge's endpoints and evolution
	// events to translate.
	stream := testStream(6, 25)
	last := stream[5][24].T
	burst := make([]anc.Activation, 200)
	for i := range burst {
		burst[i] = anc.Activation{U: 4, V: 5, T: last + float64(i+1)*0.02}
	}
	for _, batch := range append(stream, burst) {
		wire := make([]anc.Activation, len(batch))
		for i, a := range batch {
			wire[i] = anc.Activation{U: testLabels[a.U], V: testLabels[a.V], T: a.T}
		}
		if resp := c.rpc(&Request{Op: OpActivateBatch, Batch: wire}); resp.Accepted != uint32(len(batch)) {
			t.Fatalf("accepted %d, want %d", resp.Accepted, len(batch))
		}
		if err := twin.ActivateBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	level := twin.SqrtLevel()
	if got, want := c.rpc(&Request{Op: OpClusters, Level: int32(level)}).Clusters,
		labelClusters(twin.Clusters(level)); !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters: %v, want %v", got, want)
	}
	if got, want := c.rpc(&Request{Op: OpEvenClusters, Level: int32(level)}).Clusters,
		labelClusters(twin.EvenClusters(level)); !reflect.DeepEqual(got, want) {
		t.Fatalf("even clusters: %v, want %v", got, want)
	}
	for v, label := range testLabels {
		node := uint32(label)
		if got, want := c.rpc(&Request{Op: OpClusterOf, Node: node, Level: int32(level)}).Members,
			labelMembers(twin.ClusterOf(v, level)); !reflect.DeepEqual(got, want) {
			t.Fatalf("clusterOf(%d): %v, want %v", label, got, want)
		}
		if got, want := c.rpc(&Request{Op: OpSmallestClusterOf, Node: node}).Members,
			labelMembers(twin.SmallestClusterOf(v)); !reflect.DeepEqual(got, want) {
			t.Fatalf("smallestClusterOf(%d): %v, want %v", label, got, want)
		}
		u := (v + 3) % len(testLabels)
		if got, want := c.rpc(&Request{Op: OpEstimateDistance, U: node, V: uint32(testLabels[u])}).Value,
			twin.EstimateDistance(v, u); got != want {
			t.Fatalf("distance(%d, %d): %v, want %v", label, testLabels[u], got, want)
		}
		if got, want := c.rpc(&Request{Op: OpEstimateAttraction, U: node, V: uint32(testLabels[u])}).Value,
			twin.EstimateAttraction(v, u); got != want {
			t.Fatalf("attraction(%d, %d): %v, want %v", label, testLabels[u], got, want)
		}
	}

	bridge := []int{testLabels[4], testLabels[5]}
	wantEvents, wantSeq, wantMissed := twin.Events(0, []int{4, 5})
	if len(wantEvents) == 0 {
		t.Fatal("stream produced no cluster events to translate")
	}
	for i := range wantEvents {
		wantEvents[i].Node, wantEvents[i].Other = testLabels[wantEvents[i].Node], testLabels[wantEvents[i].Other]
	}
	if resp := c.rpc(&Request{Op: OpEvents, Nodes: bridge}); !sameEvents(resp.Events, wantEvents) ||
		resp.Seq != wantSeq || resp.Dropped != wantMissed {
		t.Fatalf("events: %v (seq %d, %d missed), want %v (seq %d, %d missed)",
			resp.Events, resp.Seq, resp.Dropped, wantEvents, wantSeq, wantMissed)
	}
	// The node list reaches the same dense nodes the events name: asking
	// for node 5's label alone returns exactly the events on node 5.
	var only5 []anc.ClusterEvent
	for _, e := range wantEvents {
		if e.Node == testLabels[5] {
			only5 = append(only5, e)
		}
	}
	if resp := c.rpc(&Request{Op: OpEvents, Nodes: bridge[1:]}); !sameEvents(resp.Events, only5) {
		t.Fatalf("events on label %d: %v, want %v", bridge[1], resp.Events, only5)
	}
	now := twin.Now()
	c.rpc(&Request{Op: OpActivateBatch, Batch: []anc.Activation{
		{U: testLabels[4], V: testLabels[5], T: now + 1}, {U: testLabels[5], V: testLabels[4], T: now + 2}}})
	if err := twin.ActivateBatch([]anc.Activation{{U: 4, V: 5, T: now + 1}, {U: 5, V: 4, T: now + 2}}); err != nil {
		t.Fatal(err)
	}

	if got, want := c.rpc(&Request{Op: OpTieRank, Level: -1, K: 4}).Rank,
		labelRank(twin.TieRank(-1, 4)); !reflect.DeepEqual(got, want) {
		t.Fatalf("tierank(global):\n got  %+v\n want %+v", got, want)
	}
	if got, want := c.rpc(&Request{Op: OpTieRank, Level: int32(level), K: 3}).Rank,
		labelRank(twin.TieRank(level, 3)); !reflect.DeepEqual(got, want) {
		t.Fatalf("tierank(level=%d):\n got  %+v\n want %+v", level, got, want)
	}
	wantEvo, wantSeq, _ := twin.Evolution(0)
	if len(wantEvo) == 0 {
		t.Fatal("stream produced no evolution events to translate")
	}
	for i := range wantEvo {
		wantEvo[i].Node = testLabels[wantEvo[i].Node]
	}
	if resp := c.rpc(&Request{Op: OpEvolution}); !reflect.DeepEqual(resp.Evo, wantEvo) || resp.Seq != wantSeq {
		t.Fatalf("evolution: %v seq=%d, want %v seq=%d", resp.Evo, resp.Seq, wantEvo, wantSeq)
	}

	// An unknown label rejects a batch with the label it was sent under and
	// leaves the network untouched; in a query it belongs to no cluster and
	// is infinitely far from everything.
	before := c.rpc(&Request{Op: OpStats}).Stats.Activations
	resp := c.rpcAllowErr(&Request{Op: OpActivateBatch, Batch: []anc.Activation{
		{U: testLabels[0], V: testLabels[1], T: now + 3}, {U: 7, V: 555, T: now + 4}}})
	if resp.Err == nil || resp.Err.Code != ErrCodeRejected || resp.Err.Msg != "batch[1]: no node (7, 555) in graph" {
		t.Fatalf("unknown-label batch: %+v", resp.Err)
	}
	if after := c.rpc(&Request{Op: OpStats}).Stats.Activations; after != before {
		t.Fatalf("rejected batch applied: %d → %d activations", before, after)
	}
	// 1 and 9 are dense IDs but not labels: they must not leak through.
	for _, unknown := range []uint32{555, 1, 9, math.MaxUint32} {
		if m := c.rpc(&Request{Op: OpClusterOf, Node: unknown, Level: int32(level)}).Members; len(m) != 0 {
			t.Fatalf("clusterOf(unknown %d) = %v, want empty", unknown, m)
		}
		if m := c.rpc(&Request{Op: OpSmallestClusterOf, Node: unknown}).Members; len(m) != 0 {
			t.Fatalf("smallestClusterOf(unknown %d) = %v, want empty", unknown, m)
		}
		if d := c.rpc(&Request{Op: OpEstimateDistance, U: unknown, V: 7}).Value; !math.IsInf(d, 1) {
			t.Fatalf("distance(unknown %d, 7) = %v, want +Inf", unknown, d)
		}
		if evs := c.rpc(&Request{Op: OpEvents, Nodes: []int{int(unknown)}}).Events; len(evs) != 0 {
			t.Fatalf("events(unknown %d) = %v, want none", unknown, evs)
		}
	}
}

// TestLabelTableFields pins the two translate functions field by field,
// including the response fields a small live network may leave empty.
func TestLabelTableFields(t *testing.T) {
	tab, err := newLabelTable(testLabelTable())
	if err != nil || tab == nil {
		t.Fatalf("newLabelTable: %v, %v", tab, err)
	}
	req := &Request{Node: 42, U: 0, V: 4000000000, Nodes: []int{1000, 555, 42},
		Batch: []anc.Activation{{U: 1000, V: 7, T: 1}, {U: 3, V: 64, T: 2}}}
	if err := tab.toDense(req); err != nil {
		t.Fatal(err)
	}
	if want := (&Request{Node: 2, U: 9, V: 8, Nodes: []int{0, unknownNode, 2},
		Batch: []anc.Activation{{U: 0, V: 1, T: 1}, {U: 5, V: 6, T: 2}}}); !reflect.DeepEqual(req, want) {
		t.Fatalf("toDense: %+v, want %+v", req, want)
	}
	resp := &Response{
		Members:  []int{0, 9},
		Clusters: [][]int{{1, 2}, {8}},
		Events:   []anc.ClusterEvent{{Node: 4, Other: 5, Level: 2, Joined: true, Time: 1.5}},
		Rank: anc.TieRankResult{Global: []anc.RankEntry{{Node: 3, Score: 0.5}}, Level: 2,
			Clusters: [][]anc.RankEntry{{{Node: 6, Score: 0.25}}, {}}},
		Evo: []anc.EvolutionEvent{{Seq: 1, Type: anc.EvolutionSplit, Level: 2, Node: 7, Size: 2, PrevSize: 5}},
	}
	tab.toLabels(resp)
	want := &Response{
		Members:  []int{1000, 0},
		Clusters: [][]int{{7, 42}, {4000000000}},
		Events:   []anc.ClusterEvent{{Node: 999999, Other: 3, Level: 2, Joined: true, Time: 1.5}},
		Rank: anc.TieRankResult{Global: []anc.RankEntry{{Node: 5, Score: 0.5}}, Level: 2,
			Clusters: [][]anc.RankEntry{{{Node: 64, Score: 0.25}}, {}}},
		Evo: []anc.EvolutionEvent{{Seq: 1, Type: anc.EvolutionSplit, Level: 2, Node: 12, Size: 2, PrevSize: 5}},
	}
	if !reflect.DeepEqual(resp, want) {
		t.Fatalf("toLabels:\n got  %+v\n want %+v", resp, want)
	}
}

// TestLabelTableStartup: a table whose labels already are 0..n-1 installs
// no translation (the dense path stays exactly as it was), and a label the
// wire's uint32 node width cannot carry fails Start.
func TestLabelTableStartup(t *testing.T) {
	identity := map[int64]int32{}
	for v := 0; v < 10; v++ {
		identity[int64(v)] = int32(v)
	}
	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{Labels: identity})
	defer shutdownServer(t, s)
	if s.labels != nil {
		t.Fatal("identity label table installed a translation")
	}

	for _, bad := range []int64{-1, math.MaxUint32 + 1} {
		ids := testLabelTable()
		delete(ids, 1000)
		ids[bad] = 0
		err := New(anc.NewConcurrent(testNetwork(t)), Config{Labels: ids}).Start("127.0.0.1:0")
		if err == nil || !strings.Contains(err.Error(), "uint32") {
			t.Fatalf("label %d: Start = %v, want a uint32-width error", bad, err)
		}
	}
}
