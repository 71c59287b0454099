package anc

import "anc/internal/obs"

// durableMetrics are the durability-layer observability handles, registered
// under the anc_wal_* family alongside the WAL's own frame/fsync metrics
// (see internal/wal). A nil *durableMetrics (the default — no registry in
// DurableConfig.Obs) disables them; every method is nil-safe.
type durableMetrics struct {
	// checkpointSeconds observes the full checkpoint operation: snapshot
	// write + fsync + rename + retention pruning + WAL truncation.
	checkpointSeconds *obs.Histogram
	// batchRecords observes the size of each committed WAL frame in
	// activation records (1 for an Activate) — the distribution that
	// explains fsync amortization.
	batchRecords *obs.Histogram
	// walAppendSeconds observes the WAL stage of each committed frame
	// — Append plus any policy fsyncs — one stage of the
	// per-request ingest breakdown (queue-wait / wal / fsync / repair /
	// reply; see DESIGN.md §17).
	walAppendSeconds *obs.Histogram
	// recoveries counts successful Recover calls; recoveredRecords counts
	// the WAL-tail activations they replayed.
	recoveries       *obs.Counter
	recoveredRecords *obs.Counter
}

func newDurableMetrics(reg *obs.Registry) *durableMetrics {
	if reg == nil {
		return nil
	}
	return &durableMetrics{
		checkpointSeconds: reg.Histogram("anc_wal_checkpoint_seconds",
			"checkpoint duration in seconds (snapshot write, fsync, rename, WAL truncation)", nil),
		batchRecords: reg.Histogram("anc_wal_batch_records",
			"activation records per group-committed batch",
			obs.ExponentialBuckets(1, 2, 17)),
		walAppendSeconds: reg.Histogram("anc_durable_wal_append_seconds",
			"WAL stage of a group-committed batch: framing, appends and policy fsyncs", nil),
		recoveries: reg.Counter("anc_wal_recoveries_total",
			"successful crash recoveries"),
		recoveredRecords: reg.Counter("anc_wal_recovered_records_total",
			"WAL-tail activation records replayed by recovery"),
	}
}

func (m *durableMetrics) checkpointStart() obs.Timer {
	if m == nil {
		return obs.Timer{}
	}
	return m.checkpointSeconds.Start()
}

func (m *durableMetrics) walAppend(seconds float64) {
	if m == nil {
		return
	}
	m.walAppendSeconds.Observe(seconds)
}

func (m *durableMetrics) batchLogged(n int) {
	if m == nil {
		return
	}
	m.batchRecords.Observe(float64(n))
}

func (m *durableMetrics) recovered(records uint64) {
	if m == nil {
		return
	}
	m.recoveries.Inc()
	m.recoveredRecords.Add(records)
}
