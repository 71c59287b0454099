package main

// inproc.go: the two workloads that call the library in process, with no
// lock contention, WAL or wire: the control for every serving-path
// change.

import (
	"fmt"
	"runtime"
	"time"

	"anc"
)

// Frozen counts for a runSeconds run.
const (
	streamActs      = 360000 // core-stream: single Activate calls
	streamTickEvery = 256    // activations per timestamp step
	streamPointIn   = 8      // activations per group of point queries
	streamZoomIn    = 64     // activations per zoom step + Clusters
	pointGroup      = 16     // point queries timed as one sample in process

	// pointLevel is where ClusterOf asks, relative to √n. At √n the even
	// clustering of this graph has one cluster holding a quarter to a third
	// of the nodes: a tenth of the point reads fell in it, which put the
	// class's p90 on the edge between two modes. One level finer there is
	// no such cluster; the √n level is read by the global class.
	pointLevel = 1

	batchMinutes     = 1800 // core-batch: minute batches
	batchPointGroups = 8    // groups of pointGroup point queries after each minute
	batchVerifyIn    = 50   // one cached Clusters reply in this many is recomputed and compared
)

// querier is the point-query surface anc.Network and
// anc.ConcurrentNetwork share.
type querier interface {
	SmallestClusterOf(v int) []int
	ClusterOf(v, level int) []int
	EstimateDistance(u, v int) float64
	EstimateAttraction(u, v int) float64
}

// pointGroupTime runs pointGroup point queries in the rotation of the
// served workloads and returns their mean time; replies are checked
// after the clock stops.
func pointGroupTime(q querier, s *stream, sqrt int, chk *checker) time.Duration {
	var nodes [pointGroup][2]int
	var members [pointGroup][]int
	for k := range nodes {
		switch k % 4 {
		case 0:
			nodes[k][0] = s.node(qSmallest)
		case 1:
			nodes[k][0] = s.node(qClusterOf)
		case 2:
			nodes[k][0], nodes[k][1] = s.pair(qDistance)
		default:
			nodes[k][0], nodes[k][1] = s.pair(qAttraction)
		}
	}
	start := time.Now()
	for k, uv := range nodes {
		switch k % 4 {
		case 0:
			members[k] = q.SmallestClusterOf(uv[0])
		case 1:
			members[k] = q.ClusterOf(uv[0], sqrt+pointLevel)
		case 2:
			sink = q.EstimateDistance(uv[0], uv[1])
		default:
			sink = q.EstimateAttraction(uv[0], uv[1])
		}
	}
	d := time.Since(start) / pointGroup
	for k, uv := range nodes {
		if k%4 < 2 {
			chk.check(containsError(members[k], uv[0]))
		} else {
			chk.ok()
		}
	}
	return d
}

// sink keeps the compiler from discarding a measured call's result.
var sink float64

// runCoreStream: the paper's online setting. One goroutine, a plain
// anc.Network, one activation per call.
func runCoreStream(r *run) (*report, error) {
	rep := newReport()
	nw, setup, err := timeSetup(r,
		func() (*anc.Network, error) { return anc.NewNetwork(graphN, r.edges, benchConfig(false)) },
		(*anc.Network).Close)
	if err != nil {
		return nil, err
	}
	defer nw.Close()
	rep.metrics["setup_s"] = setup
	sqrt := nw.SqrtLevel()
	view := nw.View()

	acts := r.scaled(streamActs)
	cls := &classes{
		ingest: newSamples(acts),
		point:  newSamples(acts / streamPointIn),
		global: newSamples(acts / streamZoomIn),
	}
	script := newStream(r.edges, r.seed+1, r.dig)
	seen := make([]bool, graphN)
	one := make([]anc.Activation, 0, 1)

	runtime.GC()
	for i := 1; i <= acts; i++ {
		one = script.uniformBatch(one[:0], 1, float64(i/streamTickEvery))
		r.record(one)
		start := time.Now()
		err := nw.Activate(one[0].U, one[0].V, one[0].T)
		cls.addIngest(time.Since(start), 1)
		rep.chk.check(err)
		if i%streamPointIn == 0 {
			cls.point.add(pointGroupTime(nw, script, sqrt, &rep.chk))
		}
		if i%streamZoomIn == 0 {
			// The view's Clusters is recomputed on every call.
			zoomIn := zoomsIn(i / streamZoomIn)
			script.dig.op(qZoom, b2i(zoomIn), 0)
			start := time.Now()
			if zoomIn {
				view.ZoomIn()
			} else {
				view.ZoomOut()
			}
			clusters := view.Clusters()
			cls.global.add(time.Since(start))
			rep.chk.check(partitionError(clusters, graphN, seen))
		}
	}
	cls.fill(rep)
	h, m, inv := nw.CacheStats()
	rep.cache = [3]uint64{h, m, inv}
	rep.chk.ok() // a plain Network keeps no activation counter to compare
	rep.ingestCalls, rep.acts = acts, acts
	return rep, finishInProcess(r, rep, nw)
}

// zoomsIn is the zoom walk: in, in, out, out from √n, so half the views
// are at √n+1 and a quarter each at √n and √n+2. With three costs in
// shares of 1:2:1 the class's p50 lies inside the middle one and its p90
// inside the dearest; a walk over two levels put p50 on the edge between
// them.
func zoomsIn(step int) bool { return step%4 < 2 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runCoreBatch: the bursty day of Fig. 9. Minute batches through
// anc.ConcurrentNetwork over a network built with Parallel=true, global
// and point reads after each.
func runCoreBatch(r *run) (*report, error) {
	rep := newReport()
	nw, setup, err := timeSetup(r,
		func() (*anc.Network, error) { return anc.NewNetwork(graphN, r.edges, benchConfig(true)) },
		(*anc.Network).Close)
	if err != nil {
		return nil, err
	}
	cn := anc.NewConcurrent(nw)
	defer cn.Close()
	rep.metrics["setup_s"] = setup
	sqrt := cn.SqrtLevel()

	minutes := r.scaled(batchMinutes)
	cls := &classes{
		ingest: newSamples(minutes),
		point:  newSamples(minutes * batchPointGroups),
		global: newSamples(minutes * 3),
	}
	script := newStream(r.edges, r.seed+1, r.dig)
	seen := make([]bool, graphN)
	batch := make([]anc.Activation, 0, diurnalCap)
	sent, cached := 0, 0

	runtime.GC()
	for minute := 0; minute < minutes; minute++ {
		batch = script.minuteBatch(batch[:0], minute)
		r.record(batch)
		start := time.Now()
		err := cn.ActivateBatch(batch)
		cls.addIngest(time.Since(start), len(batch))
		rep.chk.check(err)
		if err == nil {
			sent += len(batch)
		}

		script.dig.op(qClusters, sqrt, 0)
		start = time.Now()
		clusters := cn.Clusters(sqrt)
		cls.global.add(time.Since(start))
		err = partitionError(clusters, graphN, seen)
		if cached++; err == nil && cached%batchVerifyIn == 0 && !sameClusters(clusters, cn.ClustersUncached(sqrt)) {
			err = fmt.Errorf("cached Clusters(%d) differs from a recompute", sqrt)
		}
		rep.chk.check(err)

		script.dig.op(qEven, sqrt, 0)
		start = time.Now()
		clusters = cn.EvenClusters(sqrt)
		cls.global.add(time.Since(start))
		rep.chk.check(partitionError(clusters, graphN, seen))

		// A third global read keeps the cached Clusters(√n) — the
		// evolution tracker has just recomputed it inside the ingest call
		// — at a third of the class, so p50 is a recompute.
		script.dig.op(qClusters, sqrt+1, 0)
		start = time.Now()
		clusters = cn.Clusters(sqrt + 1)
		cls.global.add(time.Since(start))
		rep.chk.check(partitionError(clusters, graphN, seen))

		for g := 0; g < batchPointGroups; g++ {
			cls.point.add(pointGroupTime(cn, script, sqrt, &rep.chk))
		}
	}
	cls.fill(rep)
	rep.checkCount(cn.Stats(), sent, minutes)
	return rep, finishInProcess(r, rep, cn)
}

// finishInProcess ends an in-process workload: the live digest, and
// Save→Load as recovery.
func finishInProcess(r *run, rep *report, nw saver) error {
	var err error
	if rep.stateSHA, err = saveDigest(nw); err != nil {
		return err
	}
	if rep.metrics["recover_s"], err = r.reloadTimes(nw, rep.stateSHA, &rep.chk); err != nil {
		return err
	}
	return rep.finish(r)
}
