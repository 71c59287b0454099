package core

import (
	"anc/internal/cluster"
	"anc/internal/graph"
	"anc/internal/ring"
)

// Flip is one vote flip as the flip ring keeps it: at granularity Level,
// edge Edge started (Pass) or stopped passing the voting threshold, at
// network time Time. 16 bytes, so the ring's ring.Cap entries take 1 MiB.
type Flip struct {
	Time  float64
	Edge  graph.EdgeID
	Level uint16
	Pass  bool
}

// levelLog is what a write leaves the next reader of one (level, variant)
// it flipped (DESIGN.md §15, "Vote-driven invalidation, repair on read"):
// base, the cached clustering a flip at the level dropped, and log, every
// edge that flipped at the level since base was computed, each once —
// marks is the bitset over edge IDs of log's entries, so a log never
// outgrows m and an edge that flips off and on across writes is logged
// once. Written only in
// exclusive-writer context (the flip listener, afterRepair, the resets) and
// read only under the shared lock (the miss path), so it needs no ordering
// of its own.
type levelLog struct {
	base  *cluster.Clustering
	log   []graph.EdgeID
	marks []uint64
}

// levelLogs is one level's pair of logs.
type levelLogs struct{ power, even levelLog }

// add logs e unless it is logged already.
func (s *levelLog) add(e graph.EdgeID) {
	w, b := e/64, uint64(1)<<(uint(e)%64)
	if s.marks[w]&b == 0 {
		s.marks[w] |= b
		s.log = append(s.log, e)
	}
}

// rebase makes cl the baseline, with an empty log; the log keeps its
// array, so steady ingest allocates nothing here.
func (s *levelLog) rebase(cl *cluster.Clustering) {
	for _, e := range s.log {
		s.marks[e/64] &^= uint64(1) << (uint(e) % 64)
	}
	s.base, s.log = cl, s.log[:0]
}

// drop records a flip of e at a level whose cache entry the flip dropped
// (nil when none was cached): a dropped entry becomes the baseline, and the
// flip is logged against whatever baseline there is. Only the first flip
// of a write finds an entry to drop — readers cannot store while the
// writer holds the lock — so the baseline is the state before the write,
// and every later flip of it is logged.
func (s *levelLog) drop(cl *cluster.Clustering, e graph.EdgeID) {
	if cl != nil {
		s.rebase(cl)
	}
	if s.base != nil {
		s.add(e)
	}
}

// listen registers the network's one vote-flip listener, once, with what
// it fills: the flip ring and the per-level logs, read by the
// cluster-change feed, the clustering cache and the evolution tracker.
func (nw *Network) listen() {
	if nw.logs != nil {
		return
	}
	words := (nw.g.M() + 63) / 64
	nw.logs = make([]levelLogs, nw.ix.Levels())
	for i := range nw.logs {
		nw.logs[i].power.marks = make([]uint64, words)
		nw.logs[i].even.marks = make([]uint64, words)
	}
	if nw.flips == nil {
		nw.flips = new(ring.Ring[Flip])
		nw.flips.Reserve()
	}
	nw.ix.EnableVoteTracking().OnFlip(nw.onFlip)
}

// onFlip is the vote-flip listener; it fires inside UpdateEdges, in
// exclusive-writer context. It records the flip in the flip ring. At every
// level but the tracked one it drops the level's cache entries, each
// becoming its variant's baseline, and logs the flip. The tracked level's
// power entry stays: its log collects the call's flips, along which
// afterRepair repairs the evolution tracker's baseline and swaps the result
// in before the writer lets go. Its even entry is dropped like any other
// level's, at the write's first flip: the power entry stays cached all
// through the write, so a cached entry there does not mean a first flip.
func (nw *Network) onFlip(l int, e graph.EdgeID, pass bool) {
	nw.flips.Push(Flip{Time: nw.clock.Now(), Edge: e, Level: uint16(l), Pass: pass})
	lv := &nw.logs[l-1]
	if l == nw.evo.Level() {
		lv.power.add(e)
		lv.even.drop(nw.cache.DropEven(l), e)
		return
	}
	power, even := nw.cache.Invalidate(l)
	lv.power.drop(power, e)
	lv.even.drop(even, e)
}

// Flips reads the flip ring after the cursor since: the flips recorded
// since then, oldest first, as two slices of the ring's storage valid
// until the next write, with the newest sequence number and how many flips
// after since the ring overwrote (see ring.Ring.Span). On a network that
// does not track votes yet, the call turns tracking on — the ring records
// from then — so it is not a pure read; with the clustering cache or
// analytics enabled the network already tracks, and Flips only reads.
func (nw *Network) Flips(since uint64) (a, b []Flip, seq, missed uint64) {
	nw.listen()
	return nw.flips.Span(since)
}

// resetLogs empties every baseline and log: a wholesale change of the
// vote state (Snapshot's reconstruct) or a different cache
// (EnableClusterCache, AdoptCaches) leaves no baseline a log could repair
// from.
func (nw *Network) resetLogs() {
	for i := range nw.logs {
		nw.logs[i].power.rebase(nil)
		nw.logs[i].even.rebase(nil)
	}
}

// miss computes a level's clustering for a reader whose cache probe
// missed, under the shared lock: the variant's baseline repaired along its
// log when a write left one, else the whole-graph Power or Even.
// Concurrent readers repair concurrently, each with a Repairer from the
// network's pool.
func (nw *Network) miss(level int, even bool) *cluster.Clustering {
	var s *levelLog
	if level >= 1 && level <= len(nw.logs) {
		s = &nw.logs[level-1].power
		if even {
			s = &nw.logs[level-1].even
		}
	}
	if s == nil || s.base == nil {
		if even {
			return cluster.Even(nw.ix, level)
		}
		return cluster.Power(nw.ix, level)
	}
	r, _ := nw.readers.Get().(*cluster.Repairer)
	if r == nil {
		r = new(cluster.Repairer)
	}
	defer nw.readers.Put(r)
	if even {
		return r.RepairEven(nw.ix, level, s.base, s.log)
	}
	cl, _, _ := r.Repair(nw.ix, level, s.base, s.log)
	return cl
}
