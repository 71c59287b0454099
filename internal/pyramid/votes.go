package pyramid

import (
	"fmt"

	"anc/internal/graph"
)

// VoteTracker maintains, in real time, the per-level per-edge vote counts
// of the voting function H_l — the paper's Remarks in Section V-C. With it,
// clustering queries and change reports on user-specified nodes read votes
// in O(1) instead of polling K partitions per edge. It exploits the local
// feature of the update: only edges incident to nodes whose seed changed
// can change their vote.
type VoteTracker struct {
	ix     *Index
	same   [][][]uint64 // [pyramid][level-1] bitset over edge IDs
	counts [][]uint16   // [level-1][edge] votes; uint16 admits K up to 65535
	// onFlip listeners are called whenever an edge's vote count crosses
	// the ⌈θ·K⌉ support threshold — i.e. the edge joins (pass=true) or
	// leaves (pass=false) the surviving edge set of level l. This is the
	// primitive behind real-time change reporting on watched nodes (the
	// paper's Remarks, Section V-C) and the invalidation signal of the
	// materialized clustering cache.
	onFlip []func(l int, e graph.EdgeID, pass bool)

	// Flip coalescing state. One repair cycle (UpdateEdges) re-evaluates an
	// edge once per pyramid, so its count can cross the threshold several
	// times before settling; listeners must only see the net crossing.
	// touched marks edges whose count changed this cycle, wasPass records
	// the pass state each edge had when first touched, and dirty lists each
	// level's touched edges in first-touch order so flush emission is
	// deterministic. flushFlips compares wasPass against the settled state
	// and emits at most one event per (level, edge) per cycle. All of it is
	// per level, like counts, so the level tasks of one cycle never share it.
	touched [][]uint64       // [level-1] bitset over edge IDs
	wasPass [][]uint64       // [level-1] bitset over edge IDs
	dirty   [][]graph.EdgeID // [level-1] touched edges, first-touch order
}

// OnFlip registers a support-threshold crossing listener; multiple
// listeners (e.g. the network's flip listener and a test oracle) fire in
// registration order. Pass nil to unregister all. Listeners fire once per
// net crossing at the end of each update cycle; they must not mutate the
// index.
func (vt *VoteTracker) OnFlip(fn func(l int, e graph.EdgeID, pass bool)) {
	if fn == nil {
		vt.onFlip = nil
		return
	}
	vt.onFlip = append(vt.onFlip, fn)
}

// EnableVoteTracking attaches a VoteTracker to the index and initializes
// it from the current partitions, one count task per level scheduled like
// a build (every core, whatever Config.Parallel says). Subsequent
// UpdateEdge calls keep it exact. Idempotent: a second call returns the
// tracker already attached.
// Memory: (K+2)·Levels·m bits + 2·Levels·m bytes. K is bounded by 65535
// (Config.validate) so the uint16 counts cannot overflow.
func (ix *Index) EnableVoteTracking() *VoteTracker {
	if ix.votes != nil {
		return ix.votes
	}
	vt := &VoteTracker{ix: ix}
	words := (ix.g.M() + 63) / 64
	vt.same = make([][][]uint64, ix.cfg.K)
	for p := range vt.same {
		vt.same[p] = make([][]uint64, ix.levels)
		for l := range vt.same[p] {
			vt.same[p][l] = make([]uint64, words)
		}
	}
	vt.counts = make([][]uint16, ix.levels)
	vt.touched = make([][]uint64, ix.levels)
	vt.wasPass = make([][]uint64, ix.levels)
	vt.dirty = make([][]graph.EdgeID, ix.levels)
	for l := range vt.counts {
		vt.counts[l] = make([]uint16, ix.g.M())
		vt.touched[l] = make([]uint64, words)
		vt.wasPass[l] = make([]uint64, words)
	}
	ix.votes = vt
	vt.rebuild(ix.build)
	return vt
}

// Votes returns the tracked vote count of edge e at level l.
func (vt *VoteTracker) Votes(e graph.EdgeID, l int) int { return int(vt.counts[l-1][e]) }

// sameSeed recomputes whether the endpoints of e share a seed in the
// partition of pyramid p at level l.
func (vt *VoteTracker) sameSeed(p, l int, e graph.EdgeID) bool {
	part := vt.ix.parts[p][l-1]
	u, v := vt.ix.g.Endpoints(e)
	s := part.Seed(u)
	return s != graph.None && s == part.Seed(v)
}

func (vt *VoteTracker) get(p, l int, e graph.EdgeID) bool {
	return vt.same[p][l-1][e/64]&(1<<(uint(e)%64)) != 0
}

func (vt *VoteTracker) set(p, l int, e graph.EdgeID, b bool) {
	if b {
		vt.same[p][l-1][e/64] |= 1 << (uint(e) % 64)
	} else {
		vt.same[p][l-1][e/64] &^= 1 << (uint(e) % 64)
	}
}

// refreshEdge re-evaluates one (pyramid, level, edge) membership and fixes
// the count on change. Threshold crossings are not reported here — a count
// can cross back and forth while the remaining pyramids of the cycle are
// applied — only recorded for flushFlips to settle.
func (vt *VoteTracker) refreshEdge(p, l int, e graph.EdgeID) {
	old := vt.get(p, l, e)
	now := vt.sameSeed(p, l, e)
	if old == now {
		return
	}
	vt.set(p, l, e, now)
	min := vt.ix.MinSupport()
	before := int(vt.counts[l-1][e])
	if now {
		vt.counts[l-1][e]++
	} else {
		vt.counts[l-1][e]--
	}
	if len(vt.onFlip) == 0 {
		return
	}
	w, b := e/64, uint64(1)<<(uint(e)%64)
	if vt.touched[l-1][w]&b == 0 {
		vt.touched[l-1][w] |= b
		if before >= min {
			vt.wasPass[l-1][w] |= b
		} else {
			vt.wasPass[l-1][w] &^= b
		}
		vt.dirty[l-1] = append(vt.dirty[l-1], e)
	}
}

// flushFlips ends an update cycle: every edge whose count changed this
// cycle is compared against the pass state it entered the cycle with, and
// listeners see exactly the net crossings — an edge that crossed the
// threshold transiently across pyramids but settled where it started emits
// nothing. Emission is level-major, and within a level in first-touch
// order — pyramid order, since a level task applies its partitions in
// pyramid order whichever scheduler runs it — so it is deterministic and
// the same serial or parallel. The coalescing buffers are reused across
// cycles, so steady ingest allocates nothing here.
func (vt *VoteTracker) flushFlips() {
	min := vt.ix.MinSupport()
	for i, dirty := range vt.dirty {
		for _, e := range dirty {
			w, b := e/64, uint64(1)<<(uint(e)%64)
			vt.touched[i][w] &^= b
			was := vt.wasPass[i][w]&b != 0
			now := int(vt.counts[i][e]) >= min
			if was != now {
				for _, fn := range vt.onFlip {
					fn(i+1, e, now)
				}
			}
		}
		vt.dirty[i] = dirty[:0]
	}
}

// applyBatch processes the seed-changed node set reported by one partition
// update: every edge incident to such a node is re-evaluated. A vote is a
// pure function of the two endpoint seeds, so an edge whose weight changed
// but whose endpoints kept their seeds needs no look. refreshEdge is
// idempotent per current state, so an edge touched through both endpoints
// settles once. It touches level l's state only, so the level task calls
// it right after each partition's repair, concurrently with other levels;
// flushFlips runs once every level is done. Cost O(Σ_{x∈changed} deg x) —
// within the bound of the update itself.
func (vt *VoteTracker) applyBatch(p, l int, changed []graph.NodeID) {
	for _, x := range changed {
		for _, h := range vt.ix.g.Neighbors(x) {
			vt.refreshEdge(p, l, h.Edge)
		}
	}
}

// rebuild recomputes all memberships and counts from the partitions, when
// the tracker is attached and at the ANCF reconstruction, one recount task
// per level on the scheduler run (Index.build or Index.each). With
// listeners attached it then reports every net crossing, as an update
// cycle does: listeners see every change in ascending (level, edge) order.
// O(L·m), the order of the recount itself.
func (vt *VoteTracker) rebuild(run func(tasks int, fn func(task int, s *scratch))) {
	report := len(vt.onFlip) > 0
	run(vt.ix.levels, func(i int, _ *scratch) { vt.recount(i+1, report) })
	if !report {
		return
	}
	min := vt.ix.MinSupport()
	for l := 1; l <= vt.ix.levels; l++ {
		cs, was := vt.counts[l-1], vt.wasPass[l-1]
		for e := range cs {
			pass := int(cs[e]) >= min
			if pass != (was[e/64]&(1<<(uint(e)%64)) != 0) {
				for _, fn := range vt.onFlip {
					fn(l, graph.EdgeID(e), pass)
				}
			}
		}
	}
}

// recount recomputes level l's memberships and counts from its K
// partitions. With report set it first keeps each edge's pass state in
// wasPass (free between cycles) for rebuild to report against. It writes
// level l's state only, so the levels recount concurrently.
func (vt *VoteTracker) recount(l int, report bool) {
	min := vt.ix.MinSupport()
	cs, was := vt.counts[l-1], vt.wasPass[l-1]
	for e := range cs {
		if report {
			w, b := e/64, uint64(1)<<(uint(e)%64)
			if int(cs[e]) >= min {
				was[w] |= b
			} else {
				was[w] &^= b
			}
		}
		cs[e] = 0
	}
	for p := 0; p < vt.ix.cfg.K; p++ {
		bs := vt.same[p][l-1]
		for w := range bs {
			bs[w] = 0
		}
		for e := 0; e < vt.ix.g.M(); e++ {
			if vt.sameSeed(p, l, graph.EdgeID(e)) {
				vt.set(p, l, graph.EdgeID(e), true)
				cs[e]++
			}
		}
	}
}

// validate cross-checks the tracked counts against a fresh recomputation.
func (vt *VoteTracker) validate() string {
	for l := 1; l <= vt.ix.levels; l++ {
		for e := 0; e < vt.ix.g.M(); e++ {
			want := 0
			for p := 0; p < vt.ix.cfg.K; p++ {
				if vt.sameSeed(p, l, graph.EdgeID(e)) {
					want++
				}
			}
			if int(vt.counts[l-1][e]) != want {
				return fmt.Sprintf("vote tracker: level %d edge %d has %d, want %d", l, e, vt.counts[l-1][e], want)
			}
		}
	}
	return ""
}

func (vt *VoteTracker) memoryBytes() int64 {
	var total int64
	for p := range vt.same {
		for l := range vt.same[p] {
			total += int64(len(vt.same[p][l])) * 8
		}
	}
	for l := range vt.counts {
		total += int64(len(vt.counts[l])) * 2
		total += int64(len(vt.touched[l])) * 8
		total += int64(len(vt.wasPass[l])) * 8
	}
	return total
}
