package pyramid

import "anc/internal/obs"

// Metrics are the index's observability handles. A nil *Metrics (the
// default) disables them; every method is nil-safe, so UpdateEdges — the
// per-activation hot path — pays one predictable branch when observability
// is off and never reads the clock.
type Metrics struct {
	// BuildSeconds observes initial construction time (recorded at
	// Instrument time from the duration measured during Build).
	BuildSeconds *obs.Histogram
	// UpdateSeconds observes each UpdateEdges repair pass that changed at
	// least one weight (bit-exact no-op updates are not timed).
	UpdateSeconds *obs.Histogram
	// ReconstructSeconds observes full Reconstruct rebuilds.
	ReconstructSeconds *obs.Histogram
	// RepairedPartitions counts partition repair passes that moved at least
	// one node to another seed — the passes the vote tracker has to follow.
	RepairedPartitions *obs.Counter
}

// NewMetrics registers the pyramid metric families on reg (nil reg → nil
// metrics, observability off).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		BuildSeconds: reg.Histogram("anc_pyramid_build_seconds",
			"initial pyramid index construction time in seconds", nil),
		UpdateSeconds: reg.Histogram("anc_pyramid_update_seconds",
			"incremental UpdateEdges repair time in seconds", nil),
		ReconstructSeconds: reg.Histogram("anc_pyramid_reconstruct_seconds",
			"full index reconstruction time in seconds", nil),
		RepairedPartitions: reg.Counter("anc_pyramid_repaired_partitions_total",
			"partition repair passes that moved at least one node to another seed"),
	}
}

func (m *Metrics) updateStart() obs.Timer {
	if m == nil {
		return obs.Timer{}
	}
	return m.UpdateSeconds.Start()
}

func (m *Metrics) reconstructStart() obs.Timer {
	if m == nil {
		return obs.Timer{}
	}
	return m.ReconstructSeconds.Start()
}

// partitionRepaired is called from pool workers concurrently; the counter
// is a single atomic add.
func (m *Metrics) partitionRepaired() {
	if m == nil {
		return
	}
	m.RepairedPartitions.Inc()
}

// Instrument attaches the index's metrics to reg (nil reg is a no-op).
// Call it before the index sees concurrent traffic — attachment itself is
// not synchronized, only the attached handles are. The build duration
// measured during construction is observed immediately; when the index
// runs a worker pool, pool size and live occupancy are exposed as
// anc_pyramid_pool_workers / anc_pyramid_pool_busy.
func (ix *Index) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ix.met = NewMetrics(reg)
	ix.met.BuildSeconds.Observe(ix.buildSeconds)
	if p := ix.pool; p != nil {
		reg.Gauge("anc_pyramid_pool_workers",
			"size of the partition-update worker pool").Set(int64(poolSize(ix.levels)))
		reg.GaugeFunc("anc_pyramid_pool_busy",
			"partition-update tasks executing right now", func() float64 {
				return float64(p.busy.Load())
			})
	}
}
