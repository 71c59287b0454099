package main

// kernels.go: fixed-shape timings of every layer, taken on the replicas
// the descent left warm. The shapes are the ones the workloads use — 256
// Zipf activations, 8 uniform ones, a single activation — so the same
// numbers come out of the traced run of every workload.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"anc"
	"anc/internal/analytics"
	"anc/internal/cluster"
	"anc/internal/core"
	"anc/internal/decay"
	"anc/internal/graph"
	"anc/internal/metric"
	"anc/internal/pq"
	"anc/internal/pyramid"
	"anc/internal/serve"
	"anc/internal/serve/repl"
	"anc/internal/wal"
)

// kernelBatch is the size of the kernels' large batch, as their names say.
const kernelBatch = 256

// each times n calls of f one by one.
func each(n int, f func(i int) error) (*samples, error) {
	s := &samples{d: make([]time.Duration, 0, n)}
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		s.d = append(s.d, time.Since(start))
	}
	return s, nil
}

// mean times n calls of f under one clock and returns seconds per call.
func mean(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start).Seconds() / float64(n)
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func kernels(r *run, rp *replicas, m map[string]float64, chk *checker) error {
	n := r.reps
	ks := newStream(r.edges, r.seed+7, newDigest())
	rng := rand.New(rand.NewSource(r.seed + 8))
	// Kernel batches carry the replica's current time: accepted, and no
	// clock advance mixed into the timing.
	big := func(t float64) []anc.Activation { return ks.zipfBatch(nil, kernelBatch, t) }
	small := func(t float64) []anc.Activation { return ks.uniformBatch(nil, zoomWriteSize, t) }
	sqrt := pyramid.SqrtLevel(graphN)

	// serve: round trips and codec.
	c, d := rp.plain.conns[0], rp.plain.d
	s, err := each(n(120), func(int) error { return c.ActivateBatch(r.ctx, big(d.Now())) })
	if err != nil {
		return err
	}
	m["serve.batch256_rtt_ms_p50"] = s.pct(0.5) * 1e3
	if s, err = each(n(200), func(int) error { return c.ActivateBatch(r.ctx, small(d.Now())) }); err != nil {
		return err
	}
	m["serve.batch8_rtt_ms_p50"] = s.pct(0.5) * 1e3
	if s, err = each(n(2000), func(int) error { _, err := c.Stats(r.ctx); return err }); err != nil {
		return err
	}
	m["serve.rtt_stats_us_p50"] = s.pct(0.5) * 1e6
	req := &serve.Request{Op: serve.OpActivateBatch, ID: 1, Batch: big(0)}
	var payload []byte
	m["serve.encode_batch256_us"] = mean(n(2000), func(int) { payload = serve.EncodeRequest(req) }) * 1e6
	m["serve.decode_batch256_us"] = mean(n(2000), func(int) { _, err = serve.DecodeRequest(payload) }) * 1e6
	if err != nil {
		return err
	}
	reply := &serve.Response{ID: 1, Clusters: d.Clusters(sqrt)}
	m["serve.encode_clusters_us"] = mean(n(500), func(int) { payload = serve.EncodeResponse(serve.OpClusters, reply) }) * 1e6
	m["serve.decode_clusters_us"] = mean(n(500), func(int) { _, err = serve.DecodeResponse(serve.OpClusters, payload) }) * 1e6
	if err != nil {
		return err
	}
	m["serve.reply_bytes_per_global"] = float64(len(payload))

	// obs: the same point queries against the plain and the observed
	// stack, alternating.
	var plainChk, obsChk checker
	qs := newStream(r.edges, r.seed+9, newDigest())
	plainQ, obsQ := &samples{}, &samples{}
	for k := 0; k < n(obsQueries); k++ {
		plainQ.add(pointQuery(r, c, qs, k, sqrt, &plainChk))
		obsQ.add(pointQuery(r, rp.observed.conns[0], qs, k, sqrt, &obsChk))
	}
	chk.merge(&plainChk)
	chk.merge(&obsChk)
	m["obs.query_overhead_share"] = obsQ.pct(0.5)/plainQ.pct(0.5) - 1

	// wal: the log alone, which already holds the descent's frames. The
	// fsync hook splits each append into the write and the flush.
	frame := walFrame(big(0))
	appends := n(300)
	writeT, flushT := &samples{}, &samples{}
	flushes := rp.fsyncs
	for i := 0; i < appends; i++ {
		flushed := rp.fsyncSec
		start := time.Now()
		if _, err := rp.log.Append(frame); err != nil {
			return err
		}
		total := time.Since(start)
		flush := time.Duration((rp.fsyncSec - flushed) * float64(time.Second))
		writeT.d = append(writeT.d, total-flush)
		flushT.d = append(flushT.d, flush)
	}
	m["wal.append_us_p50"] = writeT.pct(0.5) * 1e6
	m["wal.fsync_us_p50"] = flushT.pct(0.5) * 1e6
	m["wal.fsyncs_per_batch"] = float64(rp.fsyncs-flushes) / float64(appends)
	logged := int64(0)
	replay, err := each(n(5), func(int) error {
		logged = 0
		_, err := wal.Replay(rp.logDir, 0, func(_ uint64, rec []byte) error {
			logged += int64(len(rec))
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	size, err := dirBytes(rp.logDir)
	if err != nil {
		return err
	}
	m["wal.bytes_per_act"] = float64(size) / (float64(logged) / 16)
	m["wal.replay_mb_per_s"] = float64(logged) / (1 << 20) / replay.pct(0.5)

	// anc: the durable facade; then its log feeds a follower, is
	// checkpointed, recovered and served to a second follower.
	dd := rp.durable.d
	if s, err = each(n(120), func(int) error { return dd.ActivateBatch(big(dd.Now())) }); err != nil {
		return err
	}
	m["anc.durable_batch256_ms_p50"] = s.pct(0.5) * 1e3
	if s, err = each(n(200), func(int) error { return dd.ActivateBatch(small(dd.Now())) }); err != nil {
		return err
	}
	m["anc.durable_batch8_ms_p50"] = s.pct(0.5) * 1e3
	if err := applyFrames(r, rp, m); err != nil {
		return err
	}
	if s, err = each(n(3), func(int) error { return dd.Checkpoint() }); err != nil {
		return err
	}
	m["anc.checkpoint_ms"] = s.pct(0.5) * 1e3
	live, err := saveDigest(dd.Unwrap())
	if err != nil {
		return err
	}
	rp.durable.stop()
	// Recovery right after a checkpoint is the load alone; recovery with
	// a tail on top gives the replay rate by difference.
	start := time.Now()
	rd, err := anc.Recover(rp.durable.dir, anc.DurableConfig{})
	if err != nil {
		return err
	}
	load := time.Since(start)
	rp.durable.d = rd
	got, err := saveDigest(rd.Unwrap())
	if err != nil {
		return err
	}
	if got != live {
		chk.fail("recovered replica saves %s, live replica saved %s", got, live)
	} else {
		chk.ok()
	}
	tail := n(100)
	for i := 0; i < tail; i++ {
		if err := rd.ActivateBatch(big(rd.Now())); err != nil {
			return err
		}
	}
	rp.durable.stop()
	start = time.Now()
	if rd, err = anc.Recover(rp.durable.dir, anc.DurableConfig{}); err != nil {
		return err
	}
	withTail := time.Since(start)
	rp.durable.d = rd
	m["anc.recover_load_ms"] = load.Seconds() * 1e3
	m["anc.recover_replay_acts_per_s"] = float64(tail*kernelBatch) / max(withTail-load, time.Microsecond).Seconds()
	if err := catchUp(r, rp, m); err != nil {
		return err
	}

	// core: the in-memory network.
	cn := rp.core
	now := func() float64 { return cn.Clock().Now() }
	var cb []core.Activation
	// A single Activate is core-stream's path: a plain network, without
	// the cache and the evolution tracker the facades switch on (with them
	// every vote flip at √n costs a Clusters recompute inside the call).
	plain, err := core.New(rp.g, coreOptions(false))
	if err != nil {
		return err
	}
	if s, err = each(n(3000), func(int) error {
		return plain.Activate(graph.EdgeID(rng.Intn(rp.g.M())), 0)
	}); err != nil {
		return err
	}
	m["core.activate_us_p50"] = s.pct(0.5) * 1e6
	if s, err = each(n(300), func(int) error {
		if cb, err = rp.coreBatch(small(now()), cb); err != nil {
			return err
		}
		return cn.ActivateBatch(cb)
	}); err != nil {
		return err
	}
	m["core.batch8_ms_p50"] = s.pct(0.5) * 1e3
	if s, err = each(n(150), func(int) error {
		if cb, err = rp.coreBatch(big(now()), cb); err != nil {
			return err
		}
		return cn.ActivateBatch(cb)
	}); err != nil {
		return err
	}
	m["core.batch256_ms_p50"] = s.pct(0.5) * 1e3
	var snap bytes.Buffer
	if s, err = each(n(3), func(int) error { snap.Reset(); return cn.Save(&snap) }); err != nil {
		return err
	}
	m["core.save_ms"] = s.pct(0.5) * 1e3
	m["core.snapshot_bytes_per_node"] = float64(snap.Len()) / graphN
	if s, err = each(n(3), func(int) error {
		loaded, err := core.Load(bytes.NewReader(snap.Bytes()))
		if err == nil {
			loaded.Close()
		}
		return err
	}); err != nil {
		return err
	}
	m["core.load_ms"] = s.pct(0.5) * 1e3

	// pyramid: batched repair, serial and pooled. The same 256-activation
	// Zipf batches go through the orchestration of two fresh replicas that
	// differ only in Pyramid.Parallel.
	ser, _, _, err := newOrchestra(rp.g, coreOptions(false))
	if err != nil {
		return err
	}
	defer ser.ix.Close()
	par, _, _, err := newOrchestra(rp.g, coreOptions(true))
	if err != nil {
		return err
	}
	defer par.ix.Close()
	serialT, parT, observeT := &samples{}, &samples{}, &samples{}
	for i := 0; i < n(150); i++ {
		if cb, err = rp.coreBatch(big(0), cb); err != nil {
			return err
		}
		st := ser.apply(cb)
		serialT.d = append(serialT.d, st.pyrEnd.Sub(st.simEnd))
		st = par.apply(cb)
		parT.d = append(parT.d, st.pyrEnd.Sub(st.simEnd))
		// The evolution diff against the clustering of the batch before.
		cl := cluster.Power(ser.ix, ser.level)
		start := time.Now()
		ser.tracker.Observe(cl, 0)
		observeT.d = append(observeT.d, time.Since(start))
	}
	m["pyramid.update_batch_ms_p50"] = serialT.pct(0.5) * 1e3
	m["pyramid.update_batch_par_ms_p50"] = parT.pct(0.5) * 1e3
	m["analytics.observe_ms_p50"] = observeT.pct(0.5) * 1e3

	// similarity, decay and pyramid per edge on the descent's
	// orchestration replica: a real weight change, then the repair it
	// causes. The kernels that leave the store unsettled come last.
	o := rp.orch
	simT, edgeT := &samples{}, &samples{}
	for i := 0; i < n(3000); i++ {
		e := graph.EdgeID(rng.Intn(rp.g.M()))
		start := time.Now()
		wgt := o.sim.ActivateNoReinforce(e, o.clock.Now())
		mid := time.Now()
		o.ix.UpdateEdge(e, wgt)
		simT.d = append(simT.d, mid.Sub(start))
		edgeT.d = append(edgeT.d, time.Since(mid))
	}
	m["similarity.activate_us"] = simT.pct(0.5) * 1e6
	m["pyramid.update_edge_us_p50"] = edgeT.pct(0.5) * 1e6
	m["pyramid.update_edge_us_p90"] = edgeT.pct(0.9) * 1e6
	m["pyramid.index_bytes_per_node"] = float64(o.ix.MemoryBytes()) / graphN
	if s, err = each(n(3), func(int) error { o.ix.Reconstruct(); return nil }); err != nil {
		return err
	}
	m["pyramid.reconstruct_ms"] = s.pct(0.5) * 1e3
	m["decay.rescale_us"] = mean(n(20), func(int) { o.clock.Rescale() }) * 1e6
	m["similarity.refresh_node_us"] = mean(n(20000), func(int) { o.sim.RefreshNodeSigma(graph.NodeID(rng.Intn(graphN))) }) * 1e6
	m["similarity.bump_ns"] = mean(n(200000), func(int) { o.sim.BumpNoReinforce(graph.EdgeID(rng.Intn(rp.g.M()))) }) * 1e9
	clock := decay.NewClock(benchConfig(false).Lambda)
	act := decay.NewActiveness(clock, graphN, rp.g.M(), 1, func(e int32) (int32, int32) { return rp.g.Endpoints(e) })
	m["decay.activate_ns"] = mean(n(500000), func(i int) { act.Activate(int32(rng.Intn(rp.g.M())), float64(i/streamTickEvery)) }) * 1e9

	// pq, metric, graph.
	heap := pq.New(graphN)
	prio := make([]float64, graphN)
	for i := range prio {
		prio[i] = rng.Float64()
	}
	m["pq.pushpop_ns"] = mean(n(50), func(int) {
		for x, p := range prio {
			heap.Push(int32(x), p)
		}
		for heap.Len() > 0 {
			heap.Pop()
		}
	}) / graphN * 1e9
	if s, err = each(n(20), func(int) error {
		metric.Dijkstra(rp.g, graph.NodeID(rng.Intn(graphN)), ser.sim.Weight)
		return nil
	}); err != nil {
		return err
	}
	m["metric.dijkstra_ms"] = s.pct(0.5) * 1e3
	if s, err = each(n(5), func(int) error { _, err := buildGraph(r.edges); return err }); err != nil {
		return err
	}
	m["graph.build_ms"] = s.pct(0.5) * 1e3

	// cluster: extraction kernels on the core replica's index.
	ix := cn.Index()
	s, _ = each(n(100), func(int) error { cluster.Power(ix, sqrt); return nil })
	m["cluster.power_ms_p50"] = s.pct(0.5) * 1e3
	s, _ = each(n(100), func(int) error { cluster.Even(ix, sqrt); return nil })
	m["cluster.even_ms_p50"] = s.pct(0.5) * 1e3
	s, _ = each(n(500), func(int) error { cluster.Local(ix, sqrt, graph.NodeID(rng.Intn(graphN))); return nil })
	m["cluster.local_us_p50"] = s.pct(0.5) * 1e6
	s, _ = each(n(2000), func(int) error { cluster.SmallestClusterOf(ix, graph.NodeID(rng.Intn(graphN))); return nil })
	m["cluster.smallest_us_p50"] = s.pct(0.5) * 1e6
	view := cluster.NewView(ix)
	s, _ = each(n(100), func(i int) error {
		if i%2 == 0 {
			view.ZoomIn()
		} else {
			view.ZoomOut()
		}
		view.Clusters()
		return nil
	})
	m["cluster.zoom_ms_p50"] = s.pct(0.5) * 1e3

	// cluster/cache and analytics: the snapshot probes, and the rank.
	cache := cn.EnableClusterCache()
	cn.Clusters(sqrt)
	probes, hits := n(1000000), 0
	m["cache.hit_ns"] = mean(probes, func(int) {
		if _, ok := cache.Power(sqrt); ok {
			hits++
		}
	}) * 1e9
	if hits != probes {
		chk.fail("cache probe hit %d of %d times on a stored level", hits, probes)
	} else {
		chk.ok()
	}
	if s, err = each(n(8), func(int) error {
		analytics.ComputeRank(rp.g, cn.Similarity().Anchored, now(), analytics.DefaultRankConfig())
		return nil
	}); err != nil {
		return err
	}
	m["analytics.rank_ms_p50"] = s.pct(0.5) * 1e3
	rank := cn.EnableAnalytics()
	cn.TieRank()
	hits = 0
	m["analytics.rank_hit_ns"] = mean(probes, func(int) {
		if _, ok := rank.Get(); ok {
			hits++
		}
	}) * 1e9
	if hits != probes {
		chk.fail("rank probe hit %d of %d times on a stored rank", hits, probes)
	} else {
		chk.ok()
	}
	return nil
}

// applyFrames measures the follower's write path on the durable
// replica's log: each frame through ApplyFrame on a fresh network.
func applyFrames(r *run, rp *replicas, m map[string]float64) error {
	var frames [][]byte
	if _, err := wal.Replay(rp.durable.dir, 0, func(_ uint64, rec []byte) error {
		frames = append(frames, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		return err
	}
	f, err := durableOnly(r.edges, anc.DurableConfig{})
	if err != nil {
		return err
	}
	defer f.kill()
	s, err := each(min(len(frames), r.reps(200)), func(i int) error { return f.d.ApplyFrame(uint64(i), frames[i]) })
	if err != nil {
		return err
	}
	m["repl.apply_frame_ms_p50"] = s.pct(0.5) * 1e3
	return nil
}

// catchUp times a fresh follower node catching up over TCP with a
// primary that serves the durable replica's log. It is the replica's last
// use: killing the primary's server closes it.
func catchUp(r *run, rp *replicas, m map[string]float64) error {
	pnode := repl.New(rp.durable.d, repl.Config{Heartbeat: 100 * time.Millisecond})
	psrv := serve.New(pnode, serve.Config{Repl: pnode, RequestTimeout: requestTimeout})
	if err := psrv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer psrv.Kill()
	f, err := durableOnly(r.edges, anc.DurableConfig{})
	if err != nil {
		return err
	}
	defer f.kill()
	want := rp.durable.d.LoggedActivations()
	start := time.Now()
	fnode := repl.New(f.d, repl.Config{Upstream: psrv.Addr().String(), Heartbeat: 100 * time.Millisecond, Seed: r.seed})
	fnode.Start()
	for fnode.Status().Next < want {
		if time.Since(start) > requestTimeout {
			fnode.Close()
			return fmt.Errorf("follower stuck at frame %d of %d", fnode.Status().Next, want)
		}
		time.Sleep(time.Millisecond)
	}
	m["repl.catchup_s"] = time.Since(start).Seconds()
	return fnode.Close()
}
