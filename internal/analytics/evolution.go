// Cluster-evolution tracking: diffing successive clusterings at one
// granularity level into typed birth/death/split/merge/grow/shrink
// events.
//
// # Diff algorithm
//
// Let P (previous) and C (current) be the power clusterings at the
// tracked level, restricted to clusters with at least MinSize members
// (the paper treats smaller clusters as noise, and singleton churn
// would drown the signal). For an old cluster o and a new cluster n,
// overlap(o, n) counts shared members. With matching threshold θ
// (default 0.5):
//
//   - o "moved into" n   iff overlap(o, n) ≥ θ·|o|  — most of o's
//     members land in n;
//   - n "derives from" o iff overlap(o, n) ≥ θ·|n|  — most of n's
//     members came from o.
//
// Events, in deterministic order (old clusters by ID, then new
// clusters by ID; members and overlaps are accumulated in member
// order, so the whole diff is a pure function of the two label
// arrays):
//
//   - Split(o):  ≥ 2 new clusters derive from o. Node is o's smallest
//     member, PrevSize = |o|, Size = number of fragments.
//   - Death(o):  o moved nowhere and no new cluster derives from it —
//     it dissolved below the matching threshold. Size = 0.
//   - Merge(n):  ≥ 2 old clusters moved into n. Node is n's smallest
//     member, Size = |n|, PrevSize = number of sources.
//   - Birth(n):  no old cluster moved into n and n derives from
//     nothing — it condensed from noise or fragments. PrevSize = 0.
//   - Grow/Shrink(n): n is mutually matched to exactly the o with the
//     largest overlap (both directions ≥ θ) and |n| ≠ |o|; same-size
//     continuations emit nothing, however much membership churned.
//
// A cluster consumed by a merge or produced by a split emits only the
// merge/split event, not a redundant grow/shrink.
//
// The events live in an internal/ring Ring, the bounded buffer the
// network's vote-flip ring also uses: reads do not drain. Events(since)
// is an idempotent cursor read — safe to retry, identical on a caught-up
// follower — so the ring overwrites its oldest entry when full and counts
// the overwrite in DroppedTotal, surfaced through anc.Stats and /healthz.

package analytics

import (
	"fmt"

	"anc/internal/cluster"
	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/ring"
)

// EventType classifies one cluster transition.
type EventType uint8

const (
	// EventBirth: a cluster appeared with no majority ancestor.
	EventBirth EventType = iota + 1
	// EventDeath: a cluster dissolved below the matching threshold.
	EventDeath
	// EventSplit: one cluster broke into ≥ 2 fragments.
	EventSplit
	// EventMerge: ≥ 2 clusters fused into one.
	EventMerge
	// EventGrow: a matched cluster gained members.
	EventGrow
	// EventShrink: a matched cluster lost members.
	EventShrink
)

// String returns the stable lower-case name used on the CLI and in logs.
func (t EventType) String() string {
	switch t {
	case EventBirth:
		return "birth"
	case EventDeath:
		return "death"
	case EventSplit:
		return "split"
	case EventMerge:
		return "merge"
	case EventGrow:
		return "grow"
	case EventShrink:
		return "shrink"
	}
	return fmt.Sprintf("event-%d", uint8(t))
}

// Event is one typed cluster transition. Seq numbers events from 1 in
// emission order; Node is the smallest member ID of the cluster
// concerned (the old cluster for death/split, the new one otherwise).
// Size and PrevSize are type-dependent — see the file comment.
type Event struct {
	Seq      uint64
	Type     EventType
	Level    int32
	Node     graph.NodeID
	Size     int32
	PrevSize int32
	// Time is the network time of the repair that produced the event.
	Time float64
}

// TrackerConfig tunes the diff.
type TrackerConfig struct {
	// Threshold is the matching fraction θ in (0, 1]; default 0.5.
	Threshold float64
	// MinSize filters noise clusters from both sides; default 3.
	MinSize int
}

// DefaultTrackerConfig returns the defaults shared by every layer.
func DefaultTrackerConfig() TrackerConfig {
	return TrackerConfig{Threshold: 0.5, MinSize: 3}
}

// Tracker accumulates evolution events at one granularity level.
// Observe and ObserveRepair are called from the exclusive-writer (ingest)
// context only; Events and Seq under at least the facade's shared lock.
// DroppedTotal is an always-on atomic, readable from any goroutine
// (the metrics scraper samples it without a lock).
type Tracker struct {
	level int
	cfg   TrackerConfig

	prev *cluster.Clustering

	ring ring.Ring[Event] // the newest ring.Cap events

	events      *obs.Counter   // nil until Instrument; nil-safe
	diffSeconds *obs.Histogram // nil until Instrument; nil-safe

	// diff scratch, reused across Observe calls. slot and overlapCnt are
	// indexed by new cluster ID and only ever read where this diff wrote
	// (slot) or left zero (overlapCnt), so neither is cleared between calls.
	oldIDs, newIDs []int32   // effective clusters under diff, in ID order
	slot           []int32   // new cluster ID -> index into newIDs
	overlapCnt     []int32   // new cluster ID -> members of the current old cluster landing there
	touched        []int32   // new cluster IDs with overlapCnt > 0
	pairs          []overlap // non-empty overlaps, in old-ID order
	newStart       []int32   // byNew[newStart[j]:newStart[j+1]] belong to newIDs[j]
	byNew          []int32   // indexes into pairs, grouped by new cluster, old-ID order kept
	split          []bool    // oldIDs[i] emitted a split
}

// overlap is one non-empty intersection of an old and a new effective
// cluster, both named by their index in the diff's ID lists.
type overlap struct {
	o, n int32
	cnt  int32
}

// NewTracker returns a tracker for the given level. Zero config fields
// fall back to the defaults.
func NewTracker(level int, cfg TrackerConfig) *Tracker {
	def := DefaultTrackerConfig()
	if !(cfg.Threshold > 0) || cfg.Threshold > 1 {
		cfg.Threshold = def.Threshold
	}
	if cfg.MinSize < 1 {
		cfg.MinSize = def.MinSize
	}
	return &Tracker{level: level, cfg: cfg}
}

// Level returns the tracked granularity level.
func (t *Tracker) Level() int {
	if t == nil {
		return 0
	}
	return t.level
}

// Seed installs the baseline clustering without emitting events — the
// state at enable time is the ancestor of the first diff, not a storm
// of births. cl is retained and must not be mutated afterwards.
func (t *Tracker) Seed(cl *cluster.Clustering) {
	if t == nil {
		return
	}
	t.prev = cl
}

// Baseline returns the clustering the next Observe diffs against: the last
// one seeded or observed. Shared; must not be mutated. It is what a
// cluster.Repairer must repair from for its dirty lists to be
// ObserveRepair's (see there for what they must satisfy).
func (t *Tracker) Baseline() *cluster.Clustering {
	if t == nil {
		return nil
	}
	return t.prev
}

// Observe diffs the previous clustering against cur, appending the
// resulting events at the given network time, and makes cur the new
// baseline. Exclusive-writer context only. cur is retained and must
// not be mutated afterwards.
func (t *Tracker) Observe(cur *cluster.Clustering, now float64) {
	prev := t.advance(cur)
	if prev == nil {
		return
	}
	w := t.diffSeconds.Start()
	t.oldIDs, t.newIDs = t.oldIDs[:0], t.newIDs[:0]
	for i, m := range prev.Clusters {
		if len(m) >= t.cfg.MinSize {
			t.oldIDs = append(t.oldIDs, int32(i))
		}
	}
	for i, m := range cur.Clusters {
		if len(m) >= t.cfg.MinSize {
			t.newIDs = append(t.newIDs, int32(i))
		}
	}
	t.diff(prev, cur, now)
	w.Stop()
}

// ObserveRepair is Observe for a clustering derived from the baseline by a
// repair that knows which clusters it changed. dirtyOld holds cluster IDs of
// Baseline(), dirtyNew cluster IDs of cur; both must be ascending, and
// together closed: every cluster outside them exists member for member on
// the other side, so a listed cluster's members all lie in listed clusters
// there. A clean cluster then overlaps exactly its unchanged self, which the
// diff's rules pass over in silence (one fragment, moved, same size), and
// diffing the dirty clusters alone emits the stream Observe would.
func (t *Tracker) ObserveRepair(cur *cluster.Clustering, dirtyOld, dirtyNew []int32, now float64) {
	prev := t.advance(cur)
	if prev == nil {
		return
	}
	w := t.diffSeconds.Start()
	t.oldIDs, t.newIDs = t.oldIDs[:0], t.newIDs[:0]
	for _, i := range dirtyOld {
		if len(prev.Clusters[i]) >= t.cfg.MinSize {
			t.oldIDs = append(t.oldIDs, i)
		}
	}
	for _, i := range dirtyNew {
		if len(cur.Clusters[i]) >= t.cfg.MinSize {
			t.newIDs = append(t.newIDs, i)
		}
	}
	t.diff(prev, cur, now)
	w.Stop()
}

// advance makes cur the baseline and returns the one it replaces: nil when
// there is nothing to diff (no tracker, no cur, or no baseline yet).
func (t *Tracker) advance(cur *cluster.Clustering) *cluster.Clustering {
	if t == nil || cur == nil {
		return nil
	}
	prev := t.prev
	t.prev = cur
	return prev
}

// push numbers e and appends it, overwriting the oldest when the ring is
// full.
func (t *Tracker) push(e Event) {
	e.Seq = t.ring.Seq() + 1
	t.events.Inc()
	t.ring.Push(e)
}

// Events returns the buffered events with Seq > since, in order,
// together with the latest sequence number and the cumulative
// overwrite count. The read is idempotent — nothing drains — so
// retries and replica comparisons see the same answer.
func (t *Tracker) Events(since uint64) (events []Event, seq, dropped uint64) {
	if t == nil {
		return nil, 0, 0
	}
	events, seq, _ = t.ring.Since(since)
	return events, seq, t.ring.Overwritten()
}

// Seq returns the sequence number of the newest event (0 when none).
func (t *Tracker) Seq() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Seq()
}

// DroppedTotal returns the cumulative number of events overwritten
// before anyone could read them. Safe from any goroutine.
func (t *Tracker) DroppedTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Overwritten()
}

// Instrument exposes the tracker under anc_analytics_evolution_*:
// emitted events, ring overwrites, and diff latency. Idempotent;
// nil-safe.
func (t *Tracker) Instrument(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	t.events = reg.Counter("anc_analytics_evolution_events_total",
		"cluster-evolution events emitted by the tracker")
	reg.CounterFunc("anc_analytics_evolution_drops_total",
		"evolution events overwritten in the ring before being read",
		func() float64 { return float64(t.ring.Overwritten()) })
	t.diffSeconds = reg.Histogram("anc_analytics_evolution_diff_seconds",
		"latency of one clustering diff between pyramid repairs", nil)
}

// rep returns the smallest member ID of a cluster — the stable
// representative reported in events.
func rep(members []graph.NodeID) graph.NodeID {
	r := members[0]
	for _, v := range members[1:] {
		if v < r {
			r = v
		}
	}
	return r
}

// diff implements the algorithm of the file comment over t.oldIDs and
// t.newIDs. Every member of a listed old cluster must lie in a listed new
// cluster or in noise; the cost is the listed clusters' members.
func (t *Tracker) diff(prev, cur *cluster.Clustering, now float64) {
	oldIDs, newIDs := t.oldIDs, t.newIDs
	if len(oldIDs) == 0 && len(newIDs) == 0 {
		return
	}
	if len(t.slot) < cur.NumClusters() {
		t.slot = make([]int32, cur.NumClusters())
		t.overlapCnt = make([]int32, cur.NumClusters())
	}
	for j, n := range newIDs {
		t.slot[n] = int32(j)
	}

	θ := t.cfg.Threshold
	meets := func(c, size int32) bool { return float64(c) >= θ*float64(size) }

	// Pass 1 — old clusters in ID order: splits and deaths, decided as each
	// cluster's overlaps are counted. Overlaps are sparse: the effective
	// new clusters an old cluster's members land in, in first-touch
	// (member) order.
	cnt := t.overlapCnt
	t.pairs = t.pairs[:0]
	t.split = append(t.split[:0], make([]bool, len(oldIDs))...)
	for i, o := range oldIDs {
		t.touched = t.touched[:0]
		for _, v := range prev.Clusters[o] {
			n := cur.Labels[v]
			if n < 0 || len(cur.Clusters[n]) < t.cfg.MinSize {
				continue
			}
			if cnt[n] == 0 {
				t.touched = append(t.touched, n)
			}
			cnt[n]++
		}
		oSize := int32(len(prev.Clusters[o]))
		fragments := 0
		moved := false
		for _, n := range t.touched {
			c := cnt[n]
			cnt[n] = 0
			t.pairs = append(t.pairs, overlap{o: int32(i), n: t.slot[n], cnt: c})
			if meets(c, int32(len(cur.Clusters[n]))) {
				fragments++
			}
			if meets(c, oSize) {
				moved = true
			}
		}
		switch {
		case fragments >= 2:
			t.split[i] = true
			t.push(Event{Type: EventSplit, Level: int32(t.level),
				Node: rep(prev.Clusters[o]), Size: int32(fragments),
				PrevSize: oSize, Time: now})
		case fragments == 0 && !moved:
			t.push(Event{Type: EventDeath, Level: int32(t.level),
				Node: rep(prev.Clusters[o]), Size: 0,
				PrevSize: oSize, Time: now})
		}
	}

	// The transpose, by counting sort: per new cluster its overlaps in
	// old-ID order. Counting two slots ahead leaves group j's start in
	// newStart[j+1] for the fill to advance, so it ends as the start of
	// group j+1 and newStart[j] as the start of group j.
	t.newStart = append(t.newStart[:0], make([]int32, len(newIDs)+2)...)
	for _, p := range t.pairs {
		t.newStart[p.n+2]++
	}
	for j := 2; j < len(t.newStart); j++ {
		t.newStart[j] += t.newStart[j-1]
	}
	t.byNew = append(t.byNew[:0], make([]int32, len(t.pairs))...)
	for k, p := range t.pairs {
		t.byNew[t.newStart[p.n+1]] = int32(k)
		t.newStart[p.n+1]++
	}

	// Pass 2 — new clusters in ID order: merges, births, grow/shrink.
	for j, n := range newIDs {
		nSize := int32(len(cur.Clusters[n]))
		sources := 0
		derives := false
		var best overlap
		for _, k := range t.byNew[t.newStart[j]:t.newStart[j+1]] {
			p := t.pairs[k]
			if meets(p.cnt, int32(len(prev.Clusters[oldIDs[p.o]]))) {
				sources++
			}
			if meets(p.cnt, nSize) {
				derives = true
			}
			if p.cnt > best.cnt {
				best = p
			}
		}
		switch {
		case sources >= 2:
			t.push(Event{Type: EventMerge, Level: int32(t.level),
				Node: rep(cur.Clusters[n]), Size: nSize,
				PrevSize: int32(sources), Time: now})
		case sources == 0 && !derives:
			t.push(Event{Type: EventBirth, Level: int32(t.level),
				Node: rep(cur.Clusters[n]), Size: nSize,
				PrevSize: 0, Time: now})
		default:
			oSize := int32(len(prev.Clusters[oldIDs[best.o]]))
			if !meets(best.cnt, oSize) || !meets(best.cnt, nSize) || t.split[best.o] {
				break // one-sided match or split fragment: no size event
			}
			if nSize > oSize {
				t.push(Event{Type: EventGrow, Level: int32(t.level),
					Node: rep(cur.Clusters[n]), Size: nSize,
					PrevSize: oSize, Time: now})
			} else if nSize < oSize {
				t.push(Event{Type: EventShrink, Level: int32(t.level),
					Node: rep(cur.Clusters[n]), Size: nSize,
					PrevSize: oSize, Time: now})
			}
		}
	}
}
