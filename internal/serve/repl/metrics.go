package repl

import (
	"anc/internal/obs"
	"anc/internal/serve"
)

// metrics holds the anc_repl_* counters. With observability off every
// handle is nil, and obs counters are nil-safe, so call sites need no
// branch.
type metrics struct {
	applied, duplicates, streamed, snapshots, restores, reconnects *obs.Counter
}

func newMetrics(r *obs.Registry, n *Node) metrics {
	if r == nil {
		return metrics{}
	}
	m := metrics{
		applied: r.Counter("anc_repl_applied_frames_total",
			"Replicated WAL frames applied to the local log."),
		duplicates: r.Counter("anc_repl_duplicate_frames_total",
			"Shipped frames skipped as already-applied duplicates (reconnect overlap)."),
		streamed: r.Counter("anc_repl_streamed_frames_total",
			"WAL frames shipped to subscribers."),
		snapshots: r.Counter("anc_repl_snapshots_shipped_total",
			"Checkpoint snapshots shipped to bootstrap lagging subscribers."),
		restores: r.Counter("anc_repl_snapshot_restores_total",
			"Local states rebuilt from a shipped snapshot."),
		reconnects: r.Counter("anc_repl_reconnects_total",
			"Replication session re-establishments."),
	}
	r.GaugeFunc("anc_repl_role",
		"Replication role: 0 none, 1 primary, 2 follower.",
		func() float64 { return float64(n.Role()) })
	r.GaugeFunc("anc_repl_subscribers",
		"Open replication subscriptions on this node.",
		func() float64 { return float64(n.subscribers.Load()) })
	r.GaugeFunc("anc_repl_lag_frames",
		"Committed primary frames not yet in the local log (0 on the primary).",
		func() float64 {
			st := n.Status()
			if st.Role != serve.RoleFollower {
				return 0
			}
			return float64(st.LagFrames())
		})
	r.GaugeFunc("anc_repl_last_message_age_seconds",
		"Wall-clock age of the last replication message (0 on the primary).",
		func() float64 { return n.Status().LagSeconds })
	return m
}
