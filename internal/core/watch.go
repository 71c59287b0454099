package core

import (
	"anc/internal/graph"
)

// ClusterEvent reports that a watched node's direct cluster connectivity
// changed at a granularity level: the edge to Other started (Joined) or
// stopped passing the voting threshold. This is the paper's Remarks
// feature (Section V-C): because updates are local and vote counts are
// maintained in real time, changes on user-specified nodes are reported at
// a cost equal to the reporting itself.
type ClusterEvent struct {
	Node   graph.NodeID
	Other  graph.NodeID
	Level  int
	Joined bool
	// Time is the network time when the change was detected.
	Time float64
}

// DefaultEventCap is the default bound on buffered ClusterEvents per
// watcher. A watcher that is never drained stops accumulating at the cap
// and counts the overflow instead of growing without bound.
const DefaultEventCap = 1 << 16

// Watcher delivers ClusterEvents for a set of watched nodes. Obtain one
// with Network.Watch; events are appended during Activate/Flush/Snapshot
// and drained with Drain. At most cap events are buffered; once full,
// newer events are dropped and counted, so a forgotten watcher cannot
// OOM a long-running server.
type Watcher struct {
	nw      *Network
	watched map[graph.NodeID]map[int]bool // node -> levels (nil = all levels)
	events  []ClusterEvent
	cap     int
	dropped uint64 // events discarded since the last Drain
	// droppedTotal accumulates drops over the watcher's lifetime; unlike
	// dropped it is never reset, so loss is visible without draining.
	droppedTotal uint64
}

// Watch enables real-time change reporting and returns the watcher. The
// first call enables vote tracking on the index (a one-time O(K·L·m)
// initialization); subsequent calls return the same watcher.
func (nw *Network) Watch() *Watcher {
	if nw.watcher != nil {
		return nw.watcher
	}
	nw.listen()
	nw.watcher = &Watcher{nw: nw, watched: map[graph.NodeID]map[int]bool{}, cap: DefaultEventCap}
	return nw.watcher
}

// flip reports a vote flip of e at level l to both endpoints' watches.
func (w *Watcher) flip(l int, e graph.EdgeID, pass bool) {
	u, v := w.nw.g.Endpoints(e)
	w.emit(u, v, l, pass)
	w.emit(v, u, l, pass)
}

// Watcher returns the watcher created by Watch, or nil if Watch was never
// called — a way to inspect watch state without paying the vote-index
// build.
func (nw *Network) Watcher() *Watcher { return nw.watcher }

func (w *Watcher) emit(node, other graph.NodeID, level int, joined bool) {
	levels, ok := w.watched[node]
	if !ok || (levels != nil && !levels[level]) {
		return
	}
	if len(w.events) >= w.cap {
		w.dropped++
		w.droppedTotal++
		w.nw.met.watcherDropped()
		return
	}
	w.events = append(w.events, ClusterEvent{
		Node: node, Other: other, Level: level, Joined: joined,
		Time: w.nw.clock.Now(),
	})
}

// Add watches a node at the given levels; no levels means all levels.
func (w *Watcher) Add(node graph.NodeID, levels ...int) {
	if len(levels) == 0 {
		w.watched[node] = nil
		return
	}
	set := w.watched[node]
	if set == nil {
		set = map[int]bool{}
	}
	for _, l := range levels {
		set[l] = true
	}
	w.watched[node] = set
}

// Remove stops watching a node.
func (w *Watcher) Remove(node graph.NodeID) { delete(w.watched, node) }

// SetEventCap changes the event-buffer bound. n < 1 is clamped to 1;
// events already buffered beyond a lowered cap are kept until drained.
func (w *Watcher) SetEventCap(n int) {
	if n < 1 {
		n = 1
	}
	w.cap = n
}

// Drain returns and clears the accumulated events, together with the
// number of events dropped on buffer overflow since the previous Drain.
func (w *Watcher) Drain() ([]ClusterEvent, uint64) {
	out, d := w.events, w.dropped
	w.events, w.dropped = nil, 0
	return out, d
}

// DroppedTotal returns the cumulative number of events dropped on buffer
// overflow over the watcher's lifetime. It is not reset by Drain.
func (w *Watcher) DroppedTotal() uint64 { return w.droppedTotal }
