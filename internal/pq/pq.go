// Package pq implements an indexed 4-ary min-heap keyed by float64
// priority, supporting decrease-key and arbitrary update in O(log n).
//
// It is the queue behind every Dijkstra in this repository — Voronoi
// partition construction and the bounded update algorithms (Algorithms 1
// and 3 of the paper) — where the item set is a dense range of node IDs and
// the same node may be re-prioritized many times while queued.
package pq

// entry is one queued (priority, item) pair. Keeping the priority next to
// the item makes a comparison one load instead of an item → priority
// lookup.
type entry struct {
	prio float64
	item int32
}

// less is the heap's total order: priority first, then smaller item ID, so
// the pop sequence is fully determined by the queued pairs.
func (a entry) less(b entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.item < b.item
}

// Heap is an indexed min-heap over items identified by dense int32 IDs in
// [0, capacity). Priorities are float64 distances; ties are broken by
// smaller item ID so the pop order is deterministic.
type Heap struct {
	es  []entry // 4-ary heap order; capacity preallocated, never grows
	pos []int32 // item -> heap index, -1 if absent
}

// New returns a heap able to hold items 0..capacity-1.
func New(capacity int) *Heap {
	h := &Heap{
		es:  make([]entry, 0, capacity),
		pos: make([]int32, capacity),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of queued items.
func (h *Heap) Len() int { return len(h.es) }

// Contains reports whether item x is queued.
func (h *Heap) Contains(x int32) bool { return h.pos[x] >= 0 }

// Push inserts x with priority p, or updates x's priority if already queued
// (either direction). This matches the "reinsert/update" behaviour the
// paper's Example 6 notes for priority-queue implementations.
func (h *Heap) Push(x int32, p float64) {
	if i := h.pos[x]; i >= 0 {
		if old := h.es[i].prio; p < old {
			h.up(int(i), entry{p, x})
		} else if p > old {
			h.down(int(i), entry{p, x})
		}
		return
	}
	h.es = append(h.es, entry{})
	h.up(len(h.es)-1, entry{p, x})
}

// Pop removes and returns the item with the smallest priority.
// It panics if the heap is empty.
func (h *Heap) Pop() (x int32, p float64) {
	if len(h.es) == 0 {
		panic("pq: Pop on empty heap")
	}
	top := h.es[0]
	last := len(h.es) - 1
	tail := h.es[last]
	h.es = h.es[:last]
	h.pos[top.item] = -1
	if last > 0 {
		h.down(0, tail)
	}
	return top.item, top.prio
}

// Reset empties the heap in O(len) without reallocating.
func (h *Heap) Reset() {
	for _, e := range h.es {
		h.pos[e.item] = -1
	}
	h.es = h.es[:0]
}

// up places e at the hole i, moving smaller-ranked ancestors down into the
// hole until e's slot is found: one write per level instead of a swap.
func (h *Heap) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(h.es[parent]) {
			break
		}
		h.es[i] = h.es[parent]
		h.pos[h.es[i].item] = int32(i)
		i = parent
	}
	h.es[i] = e
	h.pos[e.item] = int32(i)
}

// down places e at the hole i, moving the smallest of up to four children
// up into the hole while it ranks before e.
func (h *Heap) down(i int, e entry) {
	n := len(h.es)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h.es[j].less(h.es[best]) {
				best = j
			}
		}
		if !h.es[best].less(e) {
			break
		}
		h.es[i] = h.es[best]
		h.pos[h.es[i].item] = int32(i)
		i = best
	}
	h.es[i] = e
	h.pos[e.item] = int32(i)
}
