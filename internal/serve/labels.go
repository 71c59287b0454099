package serve

import (
	"fmt"
	"math"

	"anc"
)

// Wire-ID translation. anc.LoadEdgeList densifies a graph file's node IDs
// to 0..n-1 in order of first appearance, but a TCP client only knows the
// file's original labels — it has no way to learn the dense mapping. A
// server given the file's label table (Config.Labels) therefore translates
// at the codec boundary, in exactly two functions: toDense over a decoded
// Request before it is admitted, toLabels over a Response just before it
// is encoded. Backends only ever see dense IDs.

// labelTable is a graph file's label ↔ dense node-ID mapping. A nil table
// translates nothing: the wire then speaks dense IDs.
type labelTable struct {
	dense map[int64]int32 // label → dense
	label []int           // dense → label
}

// unknownNode stands in for a query label the table does not know. Dense
// IDs are int32, so no node has it and the facades' bounds checks answer
// with the usual empty cluster / +Inf distance / event filter matching
// nothing.
const unknownNode = math.MaxUint32

// newLabelTable builds the table for ids (LoadEdgeList's label → dense
// map). Labels must fit the wire's uint32 node width. When the labels
// already are 0..n-1 there is nothing to translate and the table is nil.
func newLabelTable(ids map[int64]int32) (*labelTable, error) {
	identity := true
	label := make([]int, len(ids))
	for orig, dense := range ids {
		if orig < 0 || orig > math.MaxUint32 {
			return nil, fmt.Errorf("serve: node ID %d does not fit the wire protocol's uint32 node width", orig)
		}
		label[dense] = int(orig)
		identity = identity && int64(dense) == orig
	}
	if identity {
		return nil, nil
	}
	return &labelTable{dense: ids, label: label}, nil
}

// toDense rewrites, in place, every node-carrying field of a decoded
// request from file labels to dense IDs. An unknown label in a batch
// rejects the batch; in a query it becomes unknownNode.
func (t *labelTable) toDense(req *Request) error {
	if t == nil {
		return nil
	}
	for i := range req.Batch {
		a := &req.Batch[i]
		u, ok1 := t.dense[int64(a.U)]
		v, ok2 := t.dense[int64(a.V)]
		if !ok1 || !ok2 {
			return fmt.Errorf("batch[%d]: no node (%d, %d) in graph", i, a.U, a.V)
		}
		a.U, a.V = int(u), int(v)
	}
	req.Node, req.U, req.V = t.denseOf(req.Node), t.denseOf(req.U), t.denseOf(req.V)
	for i, v := range req.Nodes {
		req.Nodes[i] = int(t.denseOf(uint32(v)))
	}
	return nil
}

func (t *labelTable) denseOf(label uint32) uint32 {
	if dense, ok := t.dense[int64(label)]; ok {
		return uint32(dense)
	}
	return unknownNode
}

// toLabels rewrites, in place, every node-carrying field of a response
// from dense IDs back to file labels.
func (t *labelTable) toLabels(resp *Response) {
	if t == nil {
		return
	}
	t.members(resp.Members)
	for _, c := range resp.Clusters {
		t.members(c)
	}
	for i := range resp.Events {
		e := &resp.Events[i]
		e.Node, e.Other = t.labelOf(e.Node), t.labelOf(e.Other)
	}
	t.ranked(resp.Rank.Global)
	for _, g := range resp.Rank.Clusters {
		t.ranked(g)
	}
	for i := range resp.Evo {
		resp.Evo[i].Node = t.labelOf(resp.Evo[i].Node)
	}
}

func (t *labelTable) members(nodes []int) {
	for i, v := range nodes {
		nodes[i] = t.labelOf(v)
	}
}

func (t *labelTable) ranked(entries []anc.RankEntry) {
	for i := range entries {
		entries[i].Node = t.labelOf(entries[i].Node)
	}
}

func (t *labelTable) labelOf(dense int) int {
	if dense >= 0 && dense < len(t.label) {
		return t.label[dense]
	}
	return dense
}
