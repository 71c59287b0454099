package core

import "anc/internal/obs"

// metrics are the core-layer observability handles. A nil *metrics (the
// default — Instrument never called) disables them; every method is
// nil-safe so the ingest hot path pays one predictable branch and nothing
// else.
type metrics struct {
	activations  *obs.Counter
	batches      *obs.Counter
	flushes      *obs.Counter
	reconstructs *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		activations: reg.Counter("anc_core_activations_total",
			"activations applied to the network"),
		batches: reg.Counter("anc_core_batches_total",
			"ingest calls applied (an Activate is a one-element batch)"),
		flushes: reg.Counter("anc_core_flushes_total",
			"reinforcement flushes (ANCOR interval boundaries and explicit Flush)"),
		reconstructs: reg.Counter("anc_core_reconstructs_total",
			"full index reconstructions (ANCF snapshots)"),
	}
}

func (m *metrics) activated(n int) {
	if m == nil {
		return
	}
	m.activations.Add(uint64(n))
}

func (m *metrics) batched() {
	if m == nil {
		return
	}
	m.batches.Inc()
}

func (m *metrics) flushed() {
	if m == nil {
		return
	}
	m.flushes.Inc()
}

func (m *metrics) reconstructed() {
	if m == nil {
		return
	}
	m.reconstructs.Inc()
}

// Instrument attaches the network's metrics to reg under the
// anc_core_* / anc_pyramid_* families (see DESIGN.md §12): activation,
// batch, flush and reconstruct counters here, rescale events on the decay
// clock, and the index's build/update/reconstruct
// timings. A nil registry detaches nothing and costs nothing — the
// handles stay nil and every observation site no-ops. Instrument is
// idempotent: re-instrumenting against the same registry reuses the
// registered families.
func (nw *Network) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	nw.met = newMetrics(reg)
	nw.reg = reg
	nw.clock.SetRescaleCounter(reg.Counter("anc_core_rescales_total",
		"batched rescales folding the global decay factor into anchored state"))
	nw.ix.Instrument(reg)
	nw.cache.Instrument(reg)
	nw.rank.Instrument(reg)
	nw.evo.Instrument(reg)
}
