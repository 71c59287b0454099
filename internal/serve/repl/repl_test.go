package repl

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anc"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

// barbell builds two K5s joined by a bridge — the serving suite's
// standard small graph (10 nodes, 21 edges).
func barbell() (int, [][2]int) {
	var edges [][2]int
	for base := 0; base <= 5; base += 5 {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	edges = append(edges, [2]int{4, 5})
	return 10, edges
}

// testNetwork builds the barbell with the suite's standard parameters —
// every node in a replication test starts from this identical network,
// which is what makes byte-identical convergence checkable.
func testNetwork(t *testing.T) *anc.Network {
	t.Helper()
	n, edges := barbell()
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.2
	cfg.Mu = 3
	net, err := anc.NewNetwork(n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testStream returns nb batches of per activations with strictly
// increasing timestamps.
func testStream(nb, per int) [][]anc.Activation {
	_, edges := barbell()
	batches := make([][]anc.Activation, nb)
	ts := 0.0
	for i := range batches {
		batch := make([]anc.Activation, per)
		for j := range batch {
			e := edges[(i*per+j)*7%len(edges)]
			ts += 0.5
			batch[j] = anc.Activation{U: e[0], V: e[1], T: ts}
		}
		batches[i] = batch
	}
	return batches
}

func canonClusters(cs [][]int) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		c = append([]int(nil), c...)
		sort.Ints(c)
		parts[i] = fmt.Sprint(c)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// newPrimary builds a durable primary node and its server.
func newPrimary(t *testing.T, dcfg anc.DurableConfig) (*Node, *serve.Server) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "primary")
	d, err := anc.NewDurable(testNetwork(t), dir, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	node := New(d, Config{Heartbeat: 20 * time.Millisecond, Logf: t.Logf})
	s := serve.New(node, serve.Config{Repl: node, Logf: t.Logf})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return node, s
}

// newFollower builds a durable follower node over its own directory and
// identical initial network, following addr.
func newFollower(t *testing.T, addr, name string, dcfg anc.DurableConfig, tweak func(*Config)) *Node {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	d, err := anc.NewDurable(testNetwork(t), dir, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Upstream:     addr,
		Heartbeat:    20 * time.Millisecond,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
		Seed:         42,
		Logf:         t.Logf,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	node := New(d, cfg)
	node.Start()
	return node
}

// waitCursor polls until the node's local log cursor reaches target.
func waitCursor(t *testing.T, n *Node, target uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if n.Status().Next >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("cursor stuck at %d, want %d (cause %q)", n.Status().Next, target, n.Status().LastReconnect)
}

// waitCause polls until the node's last recorded reconnect cause is
// want.
func waitCause(t *testing.T, n *Node, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if n.Status().LastReconnect == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("last reconnect cause %q, want %q", n.Status().LastReconnect, want)
}

// saveBytes serializes a node's wrapped network — the convergence
// fingerprint: identical histories must produce identical bytes.
func saveBytes(t *testing.T, n *Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Unwrap().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFollowerCatchUpMidStream is the tentpole integration test: the
// primary ingests a bursty stream over TCP while a follower subscribes
// mid-stream — far enough behind that it must bootstrap from checkpoint
// + WAL tail — then converges and, after a graceful drain, holds a
// byte-identical network and records "drain" (not "crash") as the
// session end.
func TestFollowerCatchUpMidStream(t *testing.T) {
	// Tiny segments and an aggressive checkpoint cadence force segment
	// truncation before the follower arrives, exercising the snapshot
	// bootstrap; the tail after the checkpoint exercises frame shipping.
	dcfg := anc.DurableConfig{SegmentSize: 512, CheckpointEvery: 60, Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	batches := testStream(16, 20)

	c, err := client.Dial(server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, b := range batches[:8] {
		if err := c.ActivateBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
	}

	// The follower subscribes mid-stream, from frame 0 — below the
	// primary's retained tail by now. It runs the same durable config:
	// checkpoint cadence decides where the lossy rescale fold happens, so
	// byte-identical convergence needs identical cadence on both sides.
	follower := newFollower(t, server.Addr().String(), "follower", dcfg, nil)
	defer follower.Close()

	// Bursty second half: ingest continues while the follower catches up.
	for i, b := range batches[8:] {
		if err := c.ActivateBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	target := primary.Status().Next
	waitCursor(t, follower, target)

	// The follower answers queries locally, identically to the primary.
	level := primary.Stats().SqrtLevel
	if got, want := canonClusters(follower.Clusters(level)), canonClusters(primary.Clusters(level)); got != want {
		t.Fatalf("follower clusters:\n got %s\nwant %s", got, want)
	}
	if got, want := follower.EstimateDistance(0, 9), primary.EstimateDistance(0, 9); got != want {
		t.Fatalf("follower distance %v, want %v", got, want)
	}
	st := follower.Status()
	if st.Role != serve.RoleFollower {
		t.Fatalf("role %d, want follower", st.Role)
	}
	if st.LagFrames() != 0 {
		t.Fatalf("lag %d frames after convergence", st.LagFrames())
	}

	// Ingest at the follower must be refused with the typed code.
	err = follower.ActivateBatchTraced(batches[0], trace.SpanHandle{})
	we, ok := err.(*serve.WireError)
	if !ok || we.Code != serve.ErrCodeReadOnly {
		t.Fatalf("follower ingest error %v, want read-only", err)
	}

	want := saveBytes(t, primary)

	// Graceful drain: the follower must observe the typed shutdown frame
	// and record "drain", not "crash".
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitCause(t, follower, "drain")

	if got := saveBytes(t, follower); !bytes.Equal(got, want) {
		t.Fatalf("follower state diverged: %d vs %d bytes (or content)", len(got), len(want))
	}
}

// TestFollowerAnalyticsParity asserts the analytics reads are follower-
// servable and exact: after catch-up, TieRank (global and per-cluster)
// and the complete evolution event sequence at a replica equal the
// primary's, queried through the replica's own server over the wire.
// Evolution parity is the strong half: it holds because one WAL frame is
// exactly one Activate/ActivateBatch call, so the follower repairs its
// pyramid — and diffs successive clusterings — at the primary's cadence,
// not just toward the primary's final state.
func TestFollowerAnalyticsParity(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	batches := testStream(12, 15)

	// Subscribe from frame 0 (default retention keeps the whole log), so
	// the follower replays every repair the primary ever ran.
	follower := newFollower(t, server.Addr().String(), "follower", dcfg, nil)
	defer follower.Close()
	fsrv := serve.New(follower, serve.Config{Repl: follower, Logf: t.Logf})
	if err := fsrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, b := range batches {
		if err := c.ActivateBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	// Churn phases so the tracked-level clustering actually moves: a
	// bridge-heavy phase pulls the two K5s together, then a one-sided
	// phase lets the bridge decay and pulls them apart again. Each phase
	// lands in many small batches — one repair (and one diff) per batch.
	_, edges := barbell()
	ts := 0.5 * float64(len(batches)*len(batches[0]))
	for phase := 0; phase < 6; phase++ {
		for batch := 0; batch < 4; batch++ {
			churn := make([]anc.Activation, 20)
			for i := range churn {
				e := [2]int{4, 5} // the bridge
				if phase%2 == 1 {
					e = edges[i%10] // K5-A internal edges only
				}
				ts += 0.5
				churn[i] = anc.Activation{U: e[0], V: e[1], T: ts}
			}
			if err := c.ActivateBatch(ctx, churn); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCursor(t, follower, primary.Status().Next)

	fc, err := client.Dial(fsrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	level := primary.Stats().SqrtLevel
	for _, lv := range []int{-1, level} {
		want, err := c.TieRank(ctx, lv, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fc.TieRank(ctx, lv, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("follower TieRank(level=%d):\n got %+v\nwant %+v", lv, got, want)
		}
	}

	wantEv, wantSeq, wantDrop := primary.Evolution(0)
	gotEv, gotSeq, gotDrop, err := fc.Evolution(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != wantSeq || gotDrop != wantDrop || !reflect.DeepEqual(gotEv, wantEv) {
		t.Errorf("follower evolution (%d events, seq %d, dropped %d) diverged from primary (%d events, seq %d, dropped %d)",
			len(gotEv), gotSeq, gotDrop, len(wantEv), wantSeq, wantDrop)
	}
	if wantSeq == 0 {
		t.Error("stream produced no evolution events; parity check is vacuous")
	}
	// Cursor semantics hold over the wire: reads past the newest event
	// are empty, at the same sequence number.
	tail, tailSeq, _, err := fc.Evolution(ctx, gotSeq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 || tailSeq != gotSeq {
		t.Errorf("read past newest event returned %d events, seq %d (want 0 at %d)", len(tail), tailSeq, gotSeq)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fsrv.Shutdown(sctx); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	if err := server.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestReplFaultInjection drives replication through a FaultConn dropping,
// duplicating, delaying, corrupting and cutting frames; the follower must
// reconnect (several times) and still converge byte-identically.
func TestReplFaultInjection(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	defer server.Kill()
	batches := testStream(20, 15)

	var seed atomic.Int64
	follower := newFollower(t, server.Addr().String(), "chaotic", dcfg, func(cfg *Config) {
		cfg.ChunkFrames = 2 // many small pushes: more frames to fault
		cfg.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return NewFaultConn(conn, FaultConfig{
				Seed:          seed.Add(1),
				DropProb:      0.05,
				DupProb:       0.10,
				DelayProb:     0.10,
				MaxDelay:      3 * time.Millisecond,
				CorruptProb:   0.03,
				TruncateAfter: 8,
			}), nil
		}
	})
	defer follower.Close()

	for i, b := range batches {
		if err := primary.ActivateBatchTraced(b, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Every session's link is cut after a few frames, so reconnects are
	// guaranteed; wait for the chaos to actually bite before asserting
	// convergence (heartbeats keep frames flowing even when ingest idles).
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && follower.Status().Reconnects == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if follower.Status().Reconnects == 0 {
		t.Fatal("fault injection produced no reconnects; the test exercised nothing")
	}
	waitCursor(t, follower, primary.Status().Next)
	if got, want := saveBytes(t, follower), saveBytes(t, primary); !bytes.Equal(got, want) {
		t.Fatalf("follower state diverged under faults: %d vs %d bytes (or content)", len(got), len(want))
	}
}

// TestReplFailover is the failover drill (and the repl-smoke target): a
// primary with two followers is killed mid-stream; one follower promotes,
// seals its log and takes over ingest; the other retargets to it; both
// converge to byte-identical state including the post-failover writes.
func TestReplFailover(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	batches := testStream(18, 15)

	a := newFollower(t, server.Addr().String(), "a", dcfg, nil)
	defer a.Close()
	b := newFollower(t, server.Addr().String(), "b", dcfg, nil)
	defer b.Close()

	for _, batch := range batches[:9] {
		if err := primary.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
	}
	preKill := primary.Status().Next
	waitCursor(t, a, preKill)
	waitCursor(t, b, preKill)

	// Crash the primary: no drain frame, no checkpoint.
	server.Kill()
	waitCause(t, a, "crash")

	// Failover: promote A, front it with a server, point B at it.
	if err := a.Promote(); err != nil {
		t.Fatal(err)
	}
	if a.ReadOnly() || a.Role() != serve.RolePrimary {
		t.Fatal("promoted node still read-only")
	}
	serverA := serve.New(a, serve.Config{Repl: a, Logf: t.Logf})
	if err := serverA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b.Retarget(serverA.Addr().String())

	// Ingest continues on the new primary.
	for _, batch := range batches[9:] {
		if err := a.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
	}
	waitCursor(t, b, a.Status().Next)

	want := saveBytes(t, a)
	if got := saveBytes(t, b); !bytes.Equal(got, want) {
		t.Fatalf("post-failover divergence: %d vs %d bytes (or content)", len(got), len(want))
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := serverA.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestReplChaos combines every failure class in one run: fault-injected
// links, a mid-stream primary kill, promotion, retarget and continued
// ingest — the full chaos sequence, race-clean, asserting byte-identical
// convergence at the end.
func TestReplChaos(t *testing.T) {
	dcfg := anc.DurableConfig{SegmentSize: 1024, CheckpointEvery: 90, Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	batches := testStream(24, 15)

	var seed atomic.Int64 // both followers' loops dial through this closure
	faultDial := func(cfg *Config) {
		cfg.ChunkFrames = 2
		cfg.Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return NewFaultConn(conn, FaultConfig{
				Seed: seed.Add(1), DropProb: 0.05, DupProb: 0.08, DelayProb: 0.08,
				MaxDelay: 2 * time.Millisecond, CorruptProb: 0.02, TruncateAfter: 30,
			}), nil
		}
	}
	a := newFollower(t, server.Addr().String(), "a", dcfg, faultDial)
	defer a.Close()
	b := newFollower(t, server.Addr().String(), "b", dcfg, faultDial)
	defer b.Close()

	// Burst one: ingest over faulty links.
	for i, batch := range batches[:12] {
		if err := primary.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	preKill := primary.Status().Next
	waitCursor(t, a, preKill)
	waitCursor(t, b, preKill)

	// Partition-then-kill: the primary vanishes without a drain frame.
	server.Kill()
	if err := a.Promote(); err != nil {
		t.Fatal(err)
	}
	serverA := serve.New(a, serve.Config{Repl: a, Logf: t.Logf})
	if err := serverA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b.Retarget(serverA.Addr().String())

	// Burst two: the new primary carries the rest of the stream.
	for _, batch := range batches[12:] {
		if err := a.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
	}
	waitCursor(t, b, a.Status().Next)

	want := saveBytes(t, a)
	if got := saveBytes(t, b); !bytes.Equal(got, want) {
		t.Fatalf("chaos divergence: %d vs %d bytes (or content)", len(got), len(want))
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := serverA.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestPromoteOnLoss checks the automatic failover timer: a follower
// whose upstream stays unreachable past PromoteAfter promotes itself.
func TestPromoteOnLoss(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	batches := testStream(4, 10)
	for _, batch := range batches {
		if err := primary.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
	}
	f := newFollower(t, server.Addr().String(), "auto", dcfg, func(cfg *Config) {
		cfg.PromoteAfter = 100 * time.Millisecond
	})
	defer f.Close()
	waitCursor(t, f, primary.Status().Next)

	server.Kill()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !f.ReadOnly() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.ReadOnly() {
		t.Fatal("follower did not self-promote after upstream loss")
	}
	// The promoted node accepts writes that continue the sealed log.
	more := testStream(6, 10)[5]
	if err := f.ActivateBatchTraced(more, trace.SpanHandle{}); err != nil {
		t.Fatalf("post-promotion ingest: %v", err)
	}
}

// TestFaultConnCut checks the injector's truncation: the reader sees a
// partial frame then the cut error — never a quietly missing tail.
func TestFaultConnCut(t *testing.T) {
	dcfg := anc.DurableConfig{Sync: anc.SyncNever}
	primary, server := newPrimary(t, dcfg)
	defer server.Kill()
	for _, batch := range testStream(6, 10) {
		if err := primary.ActivateBatchTraced(batch, trace.SpanHandle{}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := NewFaultConn(conn, FaultConfig{TruncateAfter: 1})
	defer fc.Close()
	if err := serve.WritePreamble(fc); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(fc)
	if err := serve.ReadPreamble(br); err != nil {
		t.Fatal(err)
	}
	if err := serve.WriteRequest(bufio.NewWriter(fc), &serve.Request{Op: serve.OpReplSubscribe, ID: 1, From: 0}); err != nil {
		t.Fatal(err)
	}
	// Frame 1 (the subscribe OK) passes; some later read must fail with
	// the injected cut.
	var sawCut bool
	for i := 0; i < 100; i++ {
		if _, err := serve.ReadFrame(br, serve.DefaultMaxFrame); err != nil {
			sawCut = true
			break
		}
	}
	if !sawCut {
		t.Fatal("truncating FaultConn never surfaced an error")
	}
}
