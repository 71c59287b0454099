package main

// served.go: the two workloads that go through loopback TCP into
// serve.Server over anc.DurableNetwork with ancserve's defaults
// (Parallel=false, fsync on every batch, 4 MiB segments).

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"anc"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

// Frozen counts for a runSeconds run.
const (
	burstBatches    = 4160 // serve-burst: ingest calls on connection W
	burstBatchSize  = 512
	burstTickEvery  = 8                    // batches per timestamp step
	burstCheckpoint = 300000               // DurableConfig.CheckpointEvery
	burstThink      = 2 * time.Millisecond // mean; each think time is drawn from [1 ms, 3 ms)
	burstGlobalOf   = 10                   // the reader sends burstGlobalIn of every burstGlobalOf reads as Clusters(√n)
	burstGlobalIn   = 4

	zoomSteps      = 2120 // query-zoom: scripted steps
	zoomWriteEvery = 2    // steps per 8-activation batch
	zoomWriteSize  = 8
	zoomTickEvery  = 16 // write batches per timestamp step
	zoomRankEvery  = 8  // steps per TieRank
	zoomVerifyIn   = 50 // one cached Clusters reply in this many is recomputed and compared
)

// pointQuery sends the k-th point query of a rotation over the four
// point operations, checks the reply and returns the round-trip time.
// ClusterOf asks one level below √n (pointLevel in inproc.go says why).
func pointQuery(r *run, c *client.Client, s *stream, k, sqrt int, chk *checker) time.Duration {
	var err error
	var start time.Time
	switch k % 4 {
	case 0:
		v := s.node(qSmallest)
		start = time.Now()
		members, qerr := c.SmallestClusterOf(r.ctx, v)
		if err = qerr; err == nil {
			err = containsError(members, v)
		}
	case 1:
		v := s.node(qClusterOf)
		start = time.Now()
		members, qerr := c.ClusterOf(r.ctx, v, sqrt+pointLevel)
		if err = qerr; err == nil {
			err = containsError(members, v)
		}
	case 2:
		u, v := s.pair(qDistance)
		start = time.Now()
		_, err = c.EstimateDistance(r.ctx, u, v)
	default:
		u, v := s.pair(qAttraction)
		start = time.Now()
		_, err = c.EstimateAttraction(r.ctx, u, v)
	}
	d := time.Since(start)
	chk.check(err)
	return d
}

// runServeBurst: connection W sends Zipf batches in a closed loop while
// connection R reads with a think time until W is done; then the server
// is killed and the directory recovered.
func runServeBurst(r *run) (*report, error) {
	rep := newReport()
	dcfg := anc.DurableConfig{CheckpointEvery: burstCheckpoint}
	st, setup, err := timeSetup(r,
		func() (*stack, error) { return startStack(r.edges, dcfg, serve.Config{}, 2) },
		(*stack).kill)
	if err != nil {
		return nil, err
	}
	defer st.kill()
	rep.metrics["setup_s"] = setup
	sqrt := st.d.SqrtLevel()

	batches := r.scaled(burstBatches)
	cls := &classes{ingest: newSamples(batches), point: &samples{}, global: &samples{}}
	writes := newStream(r.edges, r.seed+1, r.dig)
	reads := newStream(r.edges, r.seed+2, newDigest()) // how many reads fit depends on timing, so they stay out of the digest

	// Connection R. It owns its checker and samples until wg.Wait.
	var wg sync.WaitGroup
	var readChk checker
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make([]bool, graphN)
		c := st.conns[1]
		for k := 0; ; k++ {
			// A fixed think time locks the reader's cycle to the writer's
			// batch cycle, and the wait for the writer then depends on the
			// phase the two happened to settle in; a drawn one samples every
			// phase.
			think := burstThink/2 + time.Duration(reads.rng.Int63n(int64(burstThink)))
			select {
			case <-stop:
				return
			case <-time.After(think):
			}
			if k%burstGlobalOf < burstGlobalIn {
				start := time.Now()
				clusters, err := c.Clusters(r.ctx, sqrt)
				d := time.Since(start)
				if err == nil {
					err = partitionError(clusters, graphN, seen)
				}
				readChk.check(err)
				cls.global.add(d)
			} else {
				cls.point.add(pointQuery(r, c, reads, k, sqrt, &readChk))
			}
		}
	}()

	// Connection W.
	runtime.GC()
	batch := make([]anc.Activation, 0, burstBatchSize)
	sent := 0
	for b := 0; b < batches; b++ {
		batch = writes.zipfBatch(batch[:0], burstBatchSize, float64(b/burstTickEvery))
		r.record(batch)
		start := time.Now()
		err := st.conns[0].ActivateBatch(r.ctx, batch)
		cls.addIngest(time.Since(start), len(batch))
		rep.chk.check(err)
		if err == nil {
			sent += len(batch)
		}
	}
	close(stop)
	wg.Wait()
	rep.chk.merge(&readChk)
	cls.point.dropWarmup()
	cls.global.dropWarmup()
	cls.fill(rep)

	rep.checkCount(st.d.Stats(), sent, batches)
	return rep, finishServed(r, rep, st, dcfg)
}

// runQueryZoom: one connection, one script. Every zoomWriteEvery-th step
// writes eight uniform activations, every step reads 23 times.
func runQueryZoom(r *run) (*report, error) {
	rep := newReport()
	dcfg := anc.DurableConfig{}
	st, setup, err := timeSetup(r,
		func() (*stack, error) { return startStack(r.edges, dcfg, serve.Config{}, 1) },
		(*stack).kill)
	if err != nil {
		return nil, err
	}
	defer st.kill()
	rep.metrics["setup_s"] = setup
	sqrt := st.d.SqrtLevel()
	c := st.conns[0]
	view, err := c.OpenView(r.ctx)
	if err != nil {
		return nil, fmt.Errorf("open view: %w", err)
	}

	steps := r.scaled(zoomSteps)
	cls := &classes{
		ingest: newSamples((steps + zoomWriteEvery - 1) / zoomWriteEvery),
		point:  newSamples(steps * 18),
		global: newSamples(steps * 5),
	}
	script := newStream(r.edges, r.seed+1, r.dig)
	seen := make([]bool, graphN)
	batch := make([]anc.Activation, 0, zoomWriteSize)
	sent, writes, cached := 0, 0, 0

	// global times one whole-graph read and checks that it partitions
	// the nodes. With verify > 0 the reply is Clusters(verify), and one
	// such reply in zoomVerifyIn is compared, untimed, with a recompute
	// on the same network.
	global := func(verify int, call func() ([][]int, error)) {
		start := time.Now()
		clusters, err := call()
		cls.global.add(time.Since(start))
		if err == nil {
			err = partitionError(clusters, graphN, seen)
		}
		if err == nil && verify > 0 {
			if cached++; cached%zoomVerifyIn == 0 && !sameClusters(clusters, st.d.ClustersUncached(verify)) {
				err = fmt.Errorf("cached Clusters(%d) differs from a recompute", verify)
			}
		}
		rep.chk.check(err)
	}

	runtime.GC()
	for step := 0; step < steps; step++ {
		if step%zoomWriteEvery == 0 {
			batch = script.uniformBatch(batch[:0], zoomWriteSize, float64(writes/zoomTickEvery))
			writes++
			r.record(batch)
			start := time.Now()
			err := c.ActivateBatch(r.ctx, batch)
			cls.addIngest(time.Since(start), len(batch))
			rep.chk.check(err)
			if err == nil {
				sent += len(batch)
			}
		}
		// 18 point reads: 7 SmallestClusterOf, 6 ClusterOf, 5 estimates.
		for k := 0; k < 7; k++ {
			cls.point.add(pointQuery(r, c, script, 0, sqrt, &rep.chk))
		}
		for k := 0; k < 6; k++ {
			cls.point.add(pointQuery(r, c, script, 1, sqrt, &rep.chk))
		}
		for k := 0; k < 5; k++ {
			cls.point.add(pointQuery(r, c, script, 2+k%2, sqrt, &rep.chk))
		}
		// 5 global reads: Clusters at √n−1..√n+1, EvenClusters, and one
		// zoom step followed by the view.
		for l := sqrt - 1; l <= sqrt+1; l++ {
			level := l
			script.dig.op(qClusters, level, 0)
			global(level, func() ([][]int, error) { return c.Clusters(r.ctx, level) })
		}
		script.dig.op(qEven, sqrt, 0)
		global(0, func() ([][]int, error) { return c.EvenClusters(r.ctx, sqrt) })
		in := zoomsIn(step)
		script.dig.op(qZoom, b2i(in), 0)
		global(0, func() ([][]int, error) {
			var err error
			if in {
				_, err = view.ZoomIn(r.ctx)
			} else {
				_, err = view.ZoomOut(r.ctx)
			}
			if err != nil {
				return nil, err
			}
			return view.Clusters(r.ctx)
		})
		if step%zoomRankEvery == 0 {
			script.dig.op(qRank, sqrt, 10)
			res, err := c.TieRank(r.ctx, sqrt, 10)
			if err == nil && len(res.Global) != 10 {
				err = fmt.Errorf("TieRank(%d, 10) returned %d nodes", sqrt, len(res.Global))
			}
			rep.chk.check(err)
		}
	}
	cls.fill(rep)

	rep.checkCount(st.d.Stats(), sent, writes)
	h, m, inv := st.d.RankStats()
	rep.rank = [3]uint64{h, m, inv}
	return rep, finishServed(r, rep, st, dcfg)
}

// finishServed ends a served workload: the server is killed, the live
// network's Save digest taken, and the directory recovered.
func finishServed(r *run, rep *report, st *stack, dcfg anc.DurableConfig) error {
	st.stop()
	var err error
	if rep.stateSHA, err = saveDigest(st.d.Unwrap()); err != nil {
		return err
	}
	if rep.metrics["recover_s"], err = r.recoverTimes(st.dir, dcfg, rep.stateSHA, &rep.chk); err != nil {
		return err
	}
	return rep.finish(r)
}
