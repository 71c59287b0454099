package repl

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anc"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

// truncatedPrimary starts a primary with tiny segments and a checkpoint
// cadence, ingests a stream over TCP and checkpoints at its log end, so a
// follower subscribing from frame 0 is below the retained tail and must
// bootstrap from a snapshot with nothing after it: the restored state is
// the primary's final one.
func truncatedPrimary(t *testing.T, dcfg anc.DurableConfig) (*Node, *serve.Server) {
	t.Helper()
	primary, server := newPrimary(t, dcfg)
	c, err := client.Dial(server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, b := range testStream(8, 20) {
		if err := c.ActivateBatch(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return primary, server
}

// idleFollower is newFollower without the Start: the caller queries the
// pre-bootstrap state first.
func idleFollower(t *testing.T, addr string, dcfg anc.DurableConfig, reg *obs.Registry) *Node {
	t.Helper()
	d, err := anc.NewDurable(testNetwork(t), filepath.Join(t.TempDir(), "follower"), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(d, Config{Upstream: addr, Heartbeat: 20 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
		Seed: 42, Logf: t.Logf, Obs: reg})
}

// TestBootstrapCountersMonotone checks that a snapshot bootstrap restores
// into the follower's network instead of replacing it: every cumulative
// *_total series reads at least what it read before, the clustering
// cache's hit counter included.
func TestBootstrapCountersMonotone(t *testing.T) {
	dcfg := anc.DurableConfig{SegmentSize: 512, CheckpointEvery: 60, Sync: anc.SyncNever}
	primary, server := truncatedPrimary(t, dcfg)
	defer server.Kill()

	reg := obs.NewRegistry()
	fcfg := dcfg
	fcfg.Obs = reg
	f := idleFollower(t, server.Addr().String(), fcfg, reg)
	defer f.Close()
	level := f.Stats().SqrtLevel
	for i := 0; i < 5; i++ {
		f.Clusters(level) // the first is a miss, the rest hit
	}
	before := reg.Snapshot()
	if before["anc_cache_hits_total"] < 4 {
		t.Fatalf("anc_cache_hits_total %v before the bootstrap, want ≥ 4", before["anc_cache_hits_total"])
	}

	f.Start()
	waitCursor(t, f, primary.Status().Next)
	after := reg.Snapshot()
	if after["anc_repl_snapshot_restores_total"] < 1 {
		t.Fatal("the follower caught up without a snapshot bootstrap; the test exercised nothing")
	}
	for name, v := range before {
		if strings.Contains(name, "_total") && after[name] < v {
			t.Errorf("%s ran backwards across the bootstrap: %v → %v", name, v, after[name])
		}
	}
}

// readAnswers is one sample of the reads a follower serves during a
// bootstrap.
type readAnswers struct {
	clusters  string
	clusterOf []int
	rank      anc.TieRankResult
	now       float64
}

func sampleReads(n *Node, level int) readAnswers {
	return readAnswers{
		clusters:  canonClusters(n.Clusters(level)),
		clusterOf: n.ClusterOf(0, level),
		rank:      n.TieRank(-1, 5),
		now:       n.Stats().Now,
	}
}

// TestReadsDuringRestore reads a follower from several goroutines while
// it bootstraps from a snapshot (under -race this also checks that the
// lock-free cache probes never race the restore): each answer is either
// the pre-restore or the post-restore one. Afterwards the unpromoted
// follower's local write surface — including the methods embedding
// promotes from DurableNetwork — refuses with the read-only wire error
// and leaves the log untouched.
func TestReadsDuringRestore(t *testing.T) {
	dcfg := anc.DurableConfig{SegmentSize: 512, CheckpointEvery: 60, Sync: anc.SyncNever}
	primary, server := truncatedPrimary(t, dcfg)
	defer server.Kill()

	reg := obs.NewRegistry()
	f := idleFollower(t, server.Addr().String(), dcfg, reg)
	defer f.Close()
	level := f.Stats().SqrtLevel
	pre := sampleReads(f, level) // also warms the cache: later Clusters calls hit

	stop := make(chan struct{})
	samples := make([][]readAnswers, 4)
	var wg sync.WaitGroup
	for g := range samples {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				samples[g] = append(samples[g], sampleReads(f, level))
			}
		}(g)
	}
	f.Start()
	waitCursor(t, f, primary.Status().Next)
	close(stop)
	wg.Wait()
	if reg.Snapshot()["anc_repl_snapshot_restores_total"] < 1 {
		t.Fatal("the follower caught up without a snapshot bootstrap; the test exercised nothing")
	}

	post := sampleReads(f, level)
	if reflect.DeepEqual(pre, post) {
		t.Fatal("the bootstrap changed no answer; the test cannot tell pre from post")
	}
	// A sample spans four calls, so the restore may fall between two of
	// them: each answer is checked on its own.
	either := func(got, pre, post interface{}) bool {
		return reflect.DeepEqual(got, pre) || reflect.DeepEqual(got, post)
	}
	for g, ss := range samples {
		for i, s := range ss {
			if !either(s.clusters, pre.clusters, post.clusters) || !either(s.clusterOf, pre.clusterOf, post.clusterOf) ||
				!either(s.rank, pre.rank, post.rank) || !either(s.now, pre.now, post.now) {
				t.Fatalf("reader %d sample %d holds an answer that is neither pre- nor post-restore:\n%+v", g, i, s)
			}
		}
	}

	logged := f.LoggedActivations()
	batch := testStream(1, 2)[0]
	writes := map[string]func() error{
		"Activate":            func() error { return f.Activate(batch[0].U, batch[0].V, batch[0].T+1e6) },
		"ActivateBatch":       func() error { return f.ActivateBatch(batch) },
		"ActivateBatchTraced": func() error { return f.ActivateBatchTraced(batch, trace.SpanHandle{}) },
		"Snapshot":            f.Snapshot,
	}
	for name, write := range writes {
		we, ok := write().(*serve.WireError)
		if !ok || we.Code != serve.ErrCodeReadOnly {
			t.Errorf("follower %s: %v, want the read-only wire error", name, we)
		}
		if got := f.LoggedActivations(); got != logged {
			t.Errorf("follower %s moved the log from %d to %d", name, logged, got)
		}
	}
}

// TestLifecycleRace hammers Status and Promote from other goroutines while
// the node is retargeted and closed: the lifecycle transitions serialize
// on one mutex and the role is one atomic, so -race stays quiet.
func TestLifecycleRace(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	_, server := newPrimary(t, dcfg)
	defer server.Kill()
	addr := server.Addr().String()
	f := newFollower(t, addr, "f", dcfg, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Status()
				f.Promote() //anclint:ignore droppederr a promotion racing Close may fail; the race detector is the assertion
			}
		}()
	}
	for i := 0; i < 5; i++ {
		f.Retarget(addr)
		time.Sleep(2 * time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}
