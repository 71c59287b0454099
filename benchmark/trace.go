package main

// trace.go: the traced run. It never produces an end-to-end metric. It
// (1) runs a quarter-length slice of the workload to read tails, cache
// ratios and process counters, recording the first ingest requests;
// (2) replays those requests at successively deeper entry points, each on
// its own identically seeded replica, recording one span per call; and
// (3) times fixed-shape kernels of every layer (kernels.go).

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"anc"
	"anc/internal/analytics"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/decay"
	"anc/internal/graph"
	"anc/internal/obs"
	obstrace "anc/internal/obs/trace"
	"anc/internal/pyramid"
	"anc/internal/serve"
	"anc/internal/serve/client"
	"anc/internal/similarity"
	"anc/internal/wal"
)

const (
	sliceShare     = 0.25  // the slice is this share of the full workload
	descentShare   = 0.10  // the descent replays this share of the full workload's ingest requests,
	descentMaxReqs = 200   // at most this many requests
	descentMaxActs = 60000 // and at most this many activations
	obsQueries     = 1000  // point queries per stack for obs.query_overhead_share
)

// ingestCalls is the number of ingest calls of a full runSeconds run.
var ingestCalls = map[string]int{
	"serve-burst": burstBatches,
	"query-zoom":  (zoomSteps + zoomWriteEvery - 1) / zoomWriteEvery,
	"core-stream": streamActs,
	"core-batch":  batchMinutes,
}

// record keeps a copy of an ingest request for the descent, while the
// limits allow. Outside a traced run the limit is zero.
func (r *run) record(batch []anc.Activation) {
	if len(r.recorded) >= r.recordReqs || r.recordedActs+len(batch) > descentMaxActs {
		return
	}
	r.recorded = append(r.recorded, append([]anc.Activation(nil), batch...))
	r.recordedActs += len(batch)
}

// coreOptions is benchConfig as core.Options: what anc.Config.toOptions
// builds, for the replicas below the public surface.
func coreOptions(parallel bool) core.Options {
	cfg := benchConfig(parallel)
	sim := similarity.DefaultConfig()
	sim.Epsilon = cfg.Epsilon
	sim.Mu = cfg.Mu
	return core.Options{
		Method:            core.ANCO,
		Lambda:            cfg.Lambda,
		Rep:               cfg.Rep,
		ReinforceInterval: cfg.ReinforceInterval,
		Similarity:        sim,
		Pyramid:           pyramid.Config{K: cfg.K, Theta: cfg.Theta, Parallel: parallel},
		Seed:              cfg.Seed,
	}
}

func buildGraph(edges [][2]int) (*graph.Graph, error) {
	b := graph.NewBuilder(graphN)
	for _, e := range edges {
		if err := b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1])); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// orchestra performs, on its own similarity store and index, the
// per-batch orchestration core.Network performs, so each stage can be
// timed from outside.
type orchestra struct {
	g       *graph.Graph
	clock   *decay.Clock
	sim     *similarity.Store
	ix      *pyramid.Index
	tracker *analytics.Tracker
	level   int
	dirty   bool

	edgeMark, nodeMark []bool
	edges              []graph.EdgeID
	nodes              []graph.NodeID
	weights            []float64
	distinct           int // distinct edges over all batches applied
	batches            int
}

// newOrchestra mirrors core.New plus what the facades enable: vote
// tracking and the evolution tracker at the √n level. It returns the
// time spent initializing the similarity store and building the index.
func newOrchestra(g *graph.Graph, opts core.Options) (*orchestra, time.Duration, time.Duration, error) {
	o := &orchestra{g: g, clock: decay.NewClock(opts.Lambda), level: pyramid.SqrtLevel(g.N())}
	start := time.Now()
	sim, err := similarity.New(g, o.clock, 1, opts.Similarity)
	if err != nil {
		return nil, 0, 0, err
	}
	for r := 0; r < opts.Rep; r++ {
		for e := 0; e < g.M(); e++ {
			sim.Reinforce(graph.EdgeID(e))
		}
	}
	initTime := time.Since(start)
	start = time.Now()
	ix, err := pyramid.Build(g, sim.Weight, opts.Pyramid, rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, 0, 0, err
	}
	buildTime := time.Since(start)
	o.clock.Register(ix)
	o.sim, o.ix = sim, ix
	ix.EnableVoteTracking().OnFlip(func(l int, _ graph.EdgeID, _ bool) {
		if l == o.level {
			o.dirty = true
		}
	})
	o.tracker = analytics.NewTracker(o.level, analytics.DefaultTrackerConfig())
	o.tracker.Seed(cluster.Power(ix, o.level))
	o.edgeMark = make([]bool, g.M())
	o.nodeMark = make([]bool, g.N())
	return o, initTime, buildTime, nil
}

// stages are the three leaf intervals of one orchestrated request.
type stages struct {
	simStart, simEnd, pyrEnd, anaEnd time.Time
}

// apply runs one request through the stages core.Network runs: a single
// activation as Activate does, a batch as ActivateBatch does.
func (o *orchestra) apply(batch []core.Activation) stages {
	var st stages
	st.simStart = time.Now()
	if len(batch) == 1 {
		w := o.sim.ActivateNoReinforce(batch[0].Edge, batch[0].T)
		st.simEnd = time.Now()
		o.ix.UpdateEdge(batch[0].Edge, w)
		o.distinct++
	} else {
		for _, a := range batch {
			if a.T > o.clock.Now() {
				o.clock.Advance(a.T)
			}
			o.sim.BumpNoReinforce(a.Edge)
			if !o.edgeMark[a.Edge] {
				o.edgeMark[a.Edge] = true
				o.edges = append(o.edges, a.Edge)
			}
			u, v := o.g.Endpoints(a.Edge)
			for _, x := range [2]graph.NodeID{u, v} {
				if !o.nodeMark[x] {
					o.nodeMark[x] = true
					o.nodes = append(o.nodes, x)
				}
			}
		}
		for _, e := range o.edges {
			o.sim.RefreshEdgeNum(e)
		}
		for _, x := range o.nodes {
			o.sim.RefreshNodeSigma(x)
			o.nodeMark[x] = false
		}
		o.weights = o.weights[:0]
		for _, e := range o.edges {
			o.weights = append(o.weights, o.sim.Weight(e))
			o.edgeMark[e] = false
		}
		st.simEnd = time.Now()
		o.ix.UpdateEdges(o.edges, o.weights)
		o.distinct += len(o.edges)
		o.edges, o.nodes = o.edges[:0], o.nodes[:0]
		o.clock.ActivatedN(len(batch))
	}
	o.batches++
	st.pyrEnd = time.Now()
	if o.dirty {
		o.dirty = false
		o.tracker.Observe(cluster.Power(o.ix, o.level), o.clock.Now())
	}
	st.anaEnd = time.Now()
	return st
}

// rescaleCounter counts the batched rescales of a decay clock.
type rescaleCounter struct{ n int }

func (c *rescaleCounter) OnRescale(float64) { c.n++ }

// walFrame encodes a batch as DurableNetwork logs it: 16 bytes per
// activation.
func walFrame(batch []anc.Activation) []byte {
	frame := make([]byte, 16*len(batch))
	for i, a := range batch {
		binary.LittleEndian.PutUint32(frame[16*i:], uint32(a.U))
		binary.LittleEndian.PutUint32(frame[16*i+4:], uint32(a.V))
		binary.LittleEndian.PutUint64(frame[16*i+8:], math.Float64bits(a.T))
	}
	return frame
}

// replicas are the identically seeded networks of the descent, one per
// entry point.
type replicas struct {
	g        *graph.Graph
	plain    *stack // client → serve → DurableNetwork
	observed *stack // the same with an obs registry and a tracer attached
	durable  *stack // DurableNetwork alone (no server, no connections)
	log      *wal.Writer
	logDir   string
	fsyncSec float64 // time the log has spent in fsync, summed by its hook
	fsyncs   int
	core     *core.Network
	rescales rescaleCounter
	orch     *orchestra
}

func (rp *replicas) close() {
	for _, s := range []*stack{rp.plain, rp.observed, rp.durable} {
		if s != nil {
			s.kill()
		}
	}
	if rp.log != nil {
		rp.log.Close()
	}
	if rp.logDir != "" {
		os.RemoveAll(rp.logDir)
	}
	if rp.core != nil {
		rp.core.Close()
	}
	if rp.orch != nil {
		rp.orch.ix.Close()
	}
}

func newReplicas(r *run, m map[string]float64) (*replicas, error) {
	rp := &replicas{}
	var err error
	fail := func(err error) (*replicas, error) {
		rp.close()
		return nil, err
	}
	if rp.g, err = buildGraph(r.edges); err != nil {
		return fail(err)
	}
	if rp.plain, err = startStack(r.edges, anc.DurableConfig{}, serve.Config{}, 1); err != nil {
		return fail(err)
	}
	// ancserve's defaults when observability is on: one registry across
	// every layer, a tracer sampling one request in sixteen.
	reg := obs.NewRegistry()
	tracer := obstrace.New(obstrace.Config{})
	rp.observed, err = startStack(r.edges, anc.DurableConfig{Obs: reg},
		serve.Config{Obs: reg, Tracer: tracer}, 1, client.WithTracer(tracer))
	if err != nil {
		return fail(err)
	}
	if rp.durable, err = durableOnly(r.edges, anc.DurableConfig{}); err != nil {
		return fail(err)
	}
	if rp.logDir, err = os.MkdirTemp("", "anc-benchmark-log-"); err != nil {
		return fail(err)
	}
	rp.log, err = wal.OpenWriter(rp.logDir, 0, wal.Options{OnFsync: func(s float64) {
		rp.fsyncs++
		rp.fsyncSec += s
	}})
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	if rp.core, err = core.New(rp.g, coreOptions(false)); err != nil {
		return fail(err)
	}
	m["core.new_ms"] = time.Since(start).Seconds() * 1e3
	rp.core.EnableClusterCache()
	rp.core.EnableAnalytics()
	rp.core.Clock().Register(&rp.rescales)
	var initTime, buildTime time.Duration
	if rp.orch, initTime, buildTime, err = newOrchestra(rp.g, coreOptions(false)); err != nil {
		return fail(err)
	}
	m["similarity.init_ms"] = initTime.Seconds() * 1e3
	m["pyramid.build_ms"] = buildTime.Seconds() * 1e3
	return rp, nil
}

// coreBatch translates a request to edge IDs.
func (rp *replicas) coreBatch(batch []anc.Activation, dst []core.Activation) ([]core.Activation, error) {
	dst = dst[:0]
	for _, a := range batch {
		e := rp.g.FindEdge(graph.NodeID(a.U), graph.NodeID(a.V))
		if e == graph.None {
			return nil, fmt.Errorf("no edge (%d, %d)", a.U, a.V)
		}
		dst = append(dst, core.Activation{Edge: e, T: a.T})
	}
	return dst, nil
}

// descend replays the recorded requests at every entry point and
// records their spans. Request i of the workload is span request i.
func descend(r *run, rp *replicas, rec *recorder, chk *checker) error {
	c, oc := rp.plain.conns[0], rp.observed.conns[0]
	var cb []core.Activation
	for i, batch := range r.recorded {
		// The two stacks take turns going first: whichever follows the
		// other finds the machine warmer.
		observed := func() {
			start := time.Now()
			err := oc.ActivateBatch(r.ctx, batch)
			rec.record("serve.observed", -1, i, start)
			chk.check(err)
		}
		if i%2 == 1 {
			observed()
		}
		start := time.Now()
		err := c.ActivateBatch(r.ctx, batch)
		top := rec.record("serve", -1, i, start)
		chk.check(err)
		if i%2 == 0 {
			observed()
		}

		start = time.Now()
		_, err = c.Stats(r.ctx)
		rec.record("rtt", top, i, start)
		chk.check(err)

		start = time.Now()
		req := &serve.Request{Op: serve.OpActivateBatch, ID: uint64(i), Batch: batch}
		_, err = serve.DecodeRequest(serve.EncodeRequest(req))
		if err == nil {
			reply := &serve.Response{ID: uint64(i), Accepted: uint32(len(batch))}
			_, err = serve.DecodeResponse(serve.OpActivateBatch, serve.EncodeResponse(serve.OpActivateBatch, reply))
		}
		rec.record("codec", top, i, start)
		chk.check(err)

		start = time.Now()
		err = rp.durable.d.ActivateBatch(batch)
		facade := rec.record("anc", top, i, start)
		chk.check(err)

		frame := walFrame(batch)
		start = time.Now()
		_, err = rp.log.Append(frame)
		rec.record("wal", facade, i, start)
		chk.check(err)

		if cb, err = rp.coreBatch(batch, cb); err != nil {
			return err
		}
		start = time.Now()
		if len(cb) == 1 {
			err = rp.core.Activate(cb[0].Edge, cb[0].T)
		} else {
			err = rp.core.ActivateBatch(cb)
		}
		inner := rec.record("core", facade, i, start)
		chk.check(err)

		st := rp.orch.apply(cb)
		rec.add("similarity", inner, i, st.simStart, st.simEnd)
		rec.add("pyramid", inner, i, st.simEnd, st.pyrEnd)
		rec.add("analytics", inner, i, st.pyrEnd, st.anaEnd)
	}
	return nil
}

// procCounters are the process-wide counters read around the slice.
type procCounters struct {
	cpu           time.Duration
	alloc, allocs uint64
	pause         time.Duration
}

func readProc() (procCounters, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procCounters{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		allocs: ms.Mallocs,
		pause:  time.Duration(ms.PauseTotalNs),
	}, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// canary times a fixed pure-Go kernel that touches no system code: when
// it moves between two runs, the host moved, not the program.
func canary() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x&1023) * 0.5
	}
	sink = acc
	return time.Since(start).Seconds() * 1e3
}

// traceRun is the -trace 1 run.
func traceRun(r *run, out string, w io.Writer) (result, error) {
	m := map[string]float64{}
	tails := map[string]float64{}
	var chk checker
	m["bench.canary_ms"] = canary()

	// The generator canary: the graph and a fixed stretch of each stream.
	start := time.Now()
	gs := newStream(plantedGraph(graphN, graphM, graphK, graphMixing, rand.New(rand.NewSource(r.seed))), r.seed, newDigest())
	buf := gs.zipfBatch(nil, 100000, 0)
	gs.uniformBatch(buf[:0], 100000, 0)
	m["bench.gen_ms"] = time.Since(start).Seconds() * 1e3

	// (1) The slice.
	slice := *r
	slice.seconds = r.seconds * sliceShare
	slice.short = true
	slice.recordReqs = min(descentMaxReqs, int(float64(r.scaled(ingestCalls[r.workload]))*descentShare))
	before, err := readProc()
	if err != nil {
		return result{}, err
	}
	rep, err := runWorkload(&slice)
	if err != nil {
		return result{}, err
	}
	after, err := readProc()
	if err != nil {
		return result{}, err
	}
	chk.merge(&rep.chk)
	r.recorded = slice.recorded
	acts := uint64(rep.acts)
	m["proc.cpu_s"] = (after.cpu - before.cpu).Seconds()
	m["proc.alloc_bytes_per_act"] = ratio(after.alloc-before.alloc, acts)
	m["proc.allocs_per_act"] = ratio(after.allocs-before.allocs, acts)
	m["proc.gc_pause_ms_total"] = (after.pause - before.pause).Seconds() * 1e3
	m["proc.heap_after_gc_mb"] = rep.heapMB
	m["cache.hit_ratio"] = ratio(rep.cache[0], rep.cache[0]+rep.cache[1])
	m["cache.invalidations_per_write"] = ratio(rep.cache[2], uint64(rep.ingestCalls))
	m["analytics.rank_hit_ratio"] = ratio(rep.rank[0], rep.rank[0]+rep.rank[1])
	v, q := rep.cls.ingest.tail()
	m["tail.ingest_call_p99_ms"], tails["tail.ingest_call_p99_ms"] = v*1e3, q
	v, q = rep.cls.point.tail()
	m["tail.query_point_p99_us"], tails["tail.query_point_p99_us"] = v*1e6, q
	v, q = rep.cls.global.tail()
	m["tail.query_global_p99_ms"], tails["tail.query_global_p99_ms"] = v*1e3, q
	fmt.Fprintf(w, "slice: %d ingest calls, %d activations, %d requests recorded for the descent\n",
		rep.ingestCalls, rep.acts, len(r.recorded))

	// (2) The descent.
	rp, err := newReplicas(r, m)
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	rec := newRecorder()
	if err := descend(r, rp, rec, &chk); err != nil {
		return result{}, err
	}
	self := selfTimes(rec.spans)
	top := byName(rec.spans, self, "serve", false).pct(0.5)
	selfP50 := func(name string) float64 { return byName(rec.spans, self, name, true).pct(0.5) }
	serveSelf, coreSelf := selfP50("serve"), selfP50("core")
	m["trace.serve_self_ms_p50"] = serveSelf * 1e3
	m["trace.wal_self_ms_p50"] = selfP50("wal") * 1e3
	m["trace.core_self_ms_p50"] = coreSelf * 1e3
	m["trace.ingest_residual_share"] = (serveSelf + selfP50("anc") + coreSelf) / top
	m["obs.ingest_overhead_share"] = byName(rec.spans, self, "serve.observed", false).pct(0.5)/top - 1
	m["decay.rescales"] = float64(rp.rescales.n)
	m["pyramid.distinct_edges_per_batch"] = float64(rp.orch.distinct) / float64(rp.orch.batches)

	// (3) The kernels.
	if err := kernels(r, rp, m, &chk); err != nil {
		return result{}, err
	}

	path, err := writeTrace(out, &traceFile{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds,
		Metrics: m, TailPercentiles: tails, Spans: rec.spans,
	})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "trace: %d spans in %s\n", len(rec.spans), path)
	for _, msg := range chk.messages {
		fmt.Fprintf(w, "FAILED: %s\n", msg)
	}
	return assemble(perLayer, m, &chk, w)
}
