package main

// spans.go: the benchmark's own span recorder. Nothing inside the program
// is instrumented; a span is recorded here, around a call into a layer.
// Spans stay in memory and are written as trace.json when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call into a layer. Request is the index of the ingest
// request in the workload; Parent is the index, in the spans array, of
// the span of the next-shallower entry point for the same request, or -1.
// Each entry point replays the request on its own identically seeded
// replica, so a child does not lie inside its parent on the clock: the
// tree says which call contains which, the times say what each cost.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// record appends the span of a call that began at start and just ended.
func (r *recorder) record(name string, parent, request int, start time.Time) int {
	r.spans = append(r.spans, span{
		Name:    name,
		Start:   int64(start.Sub(r.origin)),
		End:     int64(time.Since(r.origin)),
		Parent:  parent,
		Request: request,
	})
	return len(r.spans) - 1
}

// add appends a span whose interval was measured by the caller.
func (r *recorder) add(name string, parent, request int, start, end time.Time) {
	r.spans = append(r.spans, span{
		Name:    name,
		Start:   int64(start.Sub(r.origin)),
		End:     int64(end.Sub(r.origin)),
		Parent:  parent,
		Request: request,
	})
}

// selfTimes returns for every span its duration minus the durations of
// its children.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// byName collects one duration per span of the given name: the span's
// own length, or its self time.
func byName(spans []span, self []time.Duration, name string, selfTime bool) *samples {
	out := &samples{}
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if selfTime {
			out.d = append(out.d, self[i])
		} else {
			out.d = append(out.d, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// traceFile is the shape of trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Metrics  map[string]float64 `json:"metrics"`
	// TailPercentiles names the percentile each tail.* metric was read
	// at: 0.99 where the class had a thousand samples, else the highest
	// percentile with ten samples beyond it.
	TailPercentiles map[string]float64 `json:"tail_percentiles"`
	Spans           []span             `json:"spans"`
}

// writeTrace writes trace.json under dir, or under a fresh temporary
// directory when dir is empty, and returns the file's path.
func writeTrace(dir string, tf *traceFile) (string, error) {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "anc-benchmark-trace-"); err != nil {
			return "", err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
