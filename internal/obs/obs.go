// Package obs is the in-process observability layer: atomic counters,
// gauges and fixed-bucket histograms collected in a Registry that renders
// both a typed snapshot (for embedding in JSON artifacts and CLI output)
// and the Prometheus text exposition format for scraping.
//
// The package is dependency-free by design — the repo's no-new-deps rule
// applies to the serving path above all — and built so that instrumented
// code costs near zero when no registry is attached:
//
//   - Every handle constructor is nil-safe: calling Counter/Gauge/Histogram
//     on a nil *Registry returns a nil handle.
//   - Every handle method is nil-safe: Inc/Add/Set/Observe on a nil handle
//     is a single predictable branch and no memory traffic.
//   - The update fast path takes no locks: counters and gauges are single
//     atomic adds, histograms are one atomic add per bucket plus a CAS loop
//     for the float sum. The registry mutex is only taken at registration
//     and scrape time.
//
// Metric names follow the repo-wide scheme anc_<layer>_<name>
// (anc_serve_requests_total, anc_wal_fsync_seconds, ...); see DESIGN.md §12.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. All methods are safe on a
// nil receiver (no-ops), so instrumented code never branches on "is the
// registry attached".
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//anclint:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
//
//anclint:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil handle).
//
//anclint:hotpath
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. All methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
//
//anclint:hotpath
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Inc adds one.
//
//anclint:hotpath
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one.
//
//anclint:hotpath
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Add adds n (which may be negative).
//
//anclint:hotpath
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil handle).
//
//anclint:hotpath
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterVec is a family of counters split by one label; With returns the
// child for a label value, creating it on first use. Callers on hot paths
// should cache the child handle rather than calling With per event.
type CounterVec struct {
	fam *family
}

// With returns the counter child for the given label value (nil on a nil
// vec, so a cached child from a disabled registry stays free).
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.counterChild(value)
}

// kind discriminates what a registered family holds.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric family: either a single unlabeled child (key
// "") or, for CounterVec, one child per label value.
type family struct {
	name     string
	help     string
	kind     kind
	labelKey string // "" for unlabeled families

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	fns      map[string]func() float64
	hists    map[string]*Histogram
	buckets  []float64 // histogram bucket upper bounds
}

func (f *family) counterChild(value string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[value]
	if !ok {
		c = &Counter{}
		f.counters[value] = c
	}
	return c
}

// childKeys returns the family's label values in sorted order.
func (f *family) childKeys() []string {
	var keys []string
	switch f.kind {
	case kindCounter:
		for k := range f.counters {
			keys = append(keys, k)
		}
	case kindGauge:
		for k := range f.gauges {
			keys = append(keys, k)
		}
	case kindGaugeFunc, kindCounterFunc:
		for k := range f.fns {
			keys = append(keys, k)
		}
	case kindHistogram:
		for k := range f.hists {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is a valid "observability off" value:
// every registration method returns a nil handle.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// lookup returns the family for name, creating it on first registration.
// Re-registering an existing name with the same kind and label key returns
// the existing family, so independently instrumented layers can share a
// registry without coordination; a kind or label mismatch panics (it is a
// programming error, not an operational condition).
func (r *Registry) lookup(name, help string, k kind, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name:     name,
			help:     help,
			kind:     k,
			labelKey: labelKey,
			counters: map[string]*Counter{},
			gauges:   map[string]*Gauge{},
			fns:      map[string]func() float64{},
			hists:    map[string]*Histogram{},
		}
		r.fams[name] = f
		return f
	}
	if f.kind != k || f.labelKey != labelKey {
		panic(fmt.Sprintf("obs: %s re-registered as %s(label %q), was %s(label %q)",
			name, k, labelKey, f.kind, f.labelKey))
	}
	return f
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, "").counterChild("")
}

// CounterVec registers (or returns the existing) counter family split by
// one label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.lookup(name, help, kindCounter, labelKey)}
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, kindGauge, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[""]
	if !ok {
		g = &Gauge{}
		f.gauges[""] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — the natural fit for values another subsystem already
// maintains (queue depths, pool occupancy). fn must be safe for concurrent
// use. Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindGaugeFunc, "")
	f.mu.Lock()
	f.fns[""] = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is sampled by calling fn at
// scrape time — for monotone totals another subsystem already maintains in
// its own atomics (the clustering cache's hit/miss counters). fn must be
// safe for concurrent use and monotonically non-decreasing. Re-registering
// replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.lookup(name, help, kindCounterFunc, "")
	f.mu.Lock()
	f.fns[""] = fn
	f.mu.Unlock()
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (ascending; an implicit +Inf bucket is appended).
// Passing nil buckets uses DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	f := r.lookup(name, help, kindHistogram, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[""]
	if !ok {
		h = newHistogram(buckets)
		f.buckets = h.upper
		f.hists[""] = h
	}
	return h
}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Snapshot flattens every metric into a name → value map: counters and
// gauges under their exposition name (children as name{key="value"}),
// histograms as name_count, name_sum and interpolated name_p50 / name_p95 /
// name_p99. The map is freshly allocated and safe to mutate; it is the
// form printed by anccli. A nil registry yields an empty map.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	for _, f := range r.families() {
		f.mu.Lock()
		for _, key := range f.childKeys() {
			name := f.name
			if key != "" {
				name = fmt.Sprintf("%s{%s=%q}", f.name, f.labelKey, key)
			}
			switch f.kind {
			case kindCounter:
				out[name] = float64(f.counters[key].Value())
			case kindGauge:
				out[name] = float64(f.gauges[key].Value())
			case kindGaugeFunc, kindCounterFunc:
				out[name] = f.fns[key]()
			case kindHistogram:
				h := f.hists[key]
				out[name+"_count"] = float64(h.Count())
				out[name+"_sum"] = h.Sum()
				out[name+"_p50"] = h.Quantile(0.50)
				out[name+"_p95"] = h.Quantile(0.95)
				out[name+"_p99"] = h.Quantile(0.99)
			}
		}
		f.mu.Unlock()
	}
	return out
}
