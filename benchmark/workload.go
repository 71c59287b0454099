package main

// workload.go: what the four workloads share — the program's
// configuration, the set-up and recovery measurements, the latency
// classes and how they become the eleven end-to-end metrics.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"anc"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

// Set-up and recovery run several times in a run and their median is
// reported; the shorter the single measurement, the more repeats.
const (
	setupRepeats   = 9
	recoverRepeats = 5  // served: Recover of the killed directory
	reloadRepeats  = 15 // in process: Save then Load
)

// run is one invocation: the workload, its seed and its scale.
type run struct {
	workload string
	seed     int64
	seconds  float64
	short    bool // tests: one set-up and one recovery

	edges [][2]int
	dig   *digest
	ctx   context.Context

	// Traced runs only: the first ingest requests, kept for the descent.
	recordReqs   int
	recorded     [][]anc.Activation
	recordedActs int
}

// scaled is a count frozen for a runSeconds run, scaled to this run.
func (r *run) scaled(base int) int {
	n := int(float64(base)*r.seconds/runSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

func (r *run) repeats(n int) int {
	if r.short {
		return 1
	}
	return n
}

// reps is a kernel's repetition count, cut to a tenth in short runs.
func (r *run) reps(count int) int {
	if r.short {
		return max(3, count/10)
	}
	return count
}

func newRun(workload string, seed int64, secs float64) *run {
	r := &run{workload: workload, seed: seed, seconds: secs, dig: newDigest(), ctx: context.Background()}
	r.edges = plantedGraph(graphN, graphM, graphK, graphMixing, rand.New(rand.NewSource(graphSeed)))
	for _, e := range r.edges {
		r.dig.op(0, e[0], e[1])
	}
	return r
}

// benchConfig is the program's configuration on every workload: the
// repo's efficiency-suite settings.
func benchConfig(parallel bool) anc.Config {
	cfg := anc.DefaultConfig()
	cfg.Lambda = 0.01
	cfg.Epsilon = 0.3
	cfg.Mu = 3
	cfg.Parallel = parallel
	return cfg
}

// report is what one untraced run found.
type report struct {
	metrics   map[string]float64
	chk       checker
	stateSHA  string
	inputsSHA string
	cache     [3]uint64 // clustering cache hits, misses, invalidations
	rank      [3]uint64 // TieRank cache hits, misses, invalidations

	// For the traced run: the classes themselves, what the ingest calls
	// acknowledged, and the live heap after a collection at the end.
	cls         *classes
	ingestCalls int
	acts        int
	heapMB      float64
}

// classes are the three latency classes of a workload. acts[i] is the
// number of activations the i-th timed ingest call acknowledged.
type classes struct {
	ingest, point, global *samples
	acts                  []int
}

// addIngest records one ingest call of n activations.
func (c *classes) addIngest(d time.Duration, n int) {
	if c.ingest.add(d) {
		c.acts = append(c.acts, n)
	}
}

// throughput is the gated ingest rate: per block, acknowledged
// activations over the summed wall time of the block's ingest calls; the
// median over the blocks.
func (c *classes) throughput() float64 {
	n := len(c.ingest.d)
	rate := func(lo, hi int) float64 {
		acts, wall := 0, 0.0
		for i := lo; i < hi; i++ {
			acts += c.acts[i]
			wall += c.ingest.d[i].Seconds()
		}
		return float64(acts) / wall
	}
	if n < blocks {
		return rate(0, n)
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = rate(b*n/blocks, (b+1)*n/blocks)
	}
	return median(per)
}

// fill writes the latency and throughput metrics.
func (c *classes) fill(rep *report) {
	rep.metrics["ingest_acts_per_s"] = c.throughput()
	rep.metrics["ingest_call_p50_ms"] = c.ingest.blockPct(0.5) * 1e3
	rep.metrics["ingest_call_p90_ms"] = c.ingest.blockPct(0.9) * 1e3
	rep.metrics["query_point_p50_us"] = c.point.blockPct(0.5) * 1e6
	rep.metrics["query_point_p90_us"] = c.point.blockPct(0.9) * 1e6
	rep.metrics["query_global_p50_ms"] = c.global.blockPct(0.5) * 1e3
	rep.metrics["query_global_p90_ms"] = c.global.blockPct(0.9) * 1e3
	rep.cls = c
}

// finish writes the metrics every workload ends with.
func (rep *report) finish(r *run) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.metrics["peak_rss_mb"] = rss
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	rep.metrics["ok_ops_share"] = float64(rep.chk.attempted-rep.chk.failed) / float64(rep.chk.attempted)
	rep.inputsSHA = r.dig.sum()
	return nil
}

// checkCount checks that the network counted exactly the activations the
// calls ingest calls acknowledged, and keeps its cache counters.
func (rep *report) checkCount(st anc.Stats, sent, calls int) {
	if st.Activations != uint64(sent) {
		rep.chk.fail("network counts %d activations, %d were acknowledged", st.Activations, sent)
	} else {
		rep.chk.ok()
	}
	rep.cache = [3]uint64{st.CacheHits, st.CacheMisses, st.CacheInvalidations}
	rep.ingestCalls, rep.acts = calls, sent
}

func newReport() *report {
	return &report{metrics: map[string]float64{}}
}

// timeSetup runs build setupRepeats times, tearing down all but the last,
// and returns the last build with the median of the build times.
func timeSetup[T any](r *run, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < r.repeats(setupRepeats); i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}

// stack is a served network: WAL directory, durable network, server and
// the client connections into it.
type stack struct {
	dir   string
	d     *anc.DurableNetwork
	srv   *serve.Server
	conns []*client.Client
}

// requestTimeout is generous: a timeout is a failed operation, and the
// benchmark measures latency, not the deadline machinery.
const requestTimeout = 60 * time.Second

// durableOnly builds the network and its durable wrapper in a fresh WAL
// directory, with no server in front.
func durableOnly(edges [][2]int, dcfg anc.DurableConfig) (*stack, error) {
	nw, err := anc.NewNetwork(graphN, edges, benchConfig(false))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "anc-benchmark-wal-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	if s.d, err = anc.NewDurable(nw, dir, dcfg); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// startStack is the served set-up path: edge list in memory to ready for
// the first request.
func startStack(edges [][2]int, dcfg anc.DurableConfig, scfg serve.Config, conns int, opts ...client.Option) (*stack, error) {
	s, err := durableOnly(edges, dcfg)
	if err != nil {
		return nil, err
	}
	scfg.RequestTimeout = requestTimeout
	s.srv = serve.New(s.d, scfg)
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		s.srv = nil
		s.kill()
		return nil, err
	}
	opts = append(opts, client.WithTimeout(requestTimeout))
	for i := 0; i < conns; i++ {
		c, err := client.Dial(s.srv.Addr().String(), opts...)
		if err != nil {
			s.kill()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// stop ends the served process the way a crash does: connections and
// listener close, the durable network closes without a checkpoint. The
// directory stays for recovery.
func (s *stack) stop() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	if s.srv != nil {
		s.srv.Kill()
		s.srv = nil
	} else if s.d != nil {
		s.d.Close()
	}
}

// kill stops the stack and removes its directory.
func (s *stack) kill() {
	s.stop()
	os.RemoveAll(s.dir)
}

// recoverTimes recovers the killed directory recoverRepeats times and
// checks that each recovered network saves the same bytes as the live one
// did. It returns the median recovery time.
func (r *run) recoverTimes(dir string, dcfg anc.DurableConfig, live string, chk *checker) (float64, error) {
	var times []float64
	for i := 0; i < r.repeats(recoverRepeats); i++ {
		runtime.GC()
		start := time.Now()
		d, err := anc.Recover(dir, dcfg)
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		got, err := saveDigest(d.Unwrap())
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		if got != live {
			chk.fail("recovered network saves %s, live network saved %s", got, live)
		} else {
			chk.ok()
		}
	}
	return median(times), nil
}

// reloadTimes is recovery in process: Save then Load, reloadRepeats times,
// each loaded network checked against the live digest.
func (r *run) reloadTimes(nw saver, live string, chk *checker) (float64, error) {
	var times []float64
	var buf bytes.Buffer
	for i := 0; i < r.repeats(reloadRepeats); i++ {
		buf.Reset()
		runtime.GC()
		start := time.Now()
		if err := nw.Save(&buf); err != nil {
			return 0, fmt.Errorf("save: %w", err)
		}
		loaded, err := anc.Load(&buf)
		if err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		got, err := saveDigest(loaded)
		loaded.Close()
		if err != nil {
			return 0, fmt.Errorf("save: %w", err)
		}
		if got != live {
			chk.fail("loaded network saves %s, live network saved %s", got, live)
		} else {
			chk.ok()
		}
	}
	return median(times), nil
}
