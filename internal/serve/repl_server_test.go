package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"anc"
)

// stubRepl is a minimal Replicator for exercising the server's
// replication surface without a real repl.Node.
type stubRepl struct {
	status   ReplStatus
	readOnly atomic.Bool
	promotes atomic.Int32
}

func (r *stubRepl) Status() ReplStatus { return r.status }
func (r *stubRepl) ReadOnly() bool     { return r.readOnly.Load() }
func (r *stubRepl) Promote() error {
	r.promotes.Add(1)
	r.readOnly.Store(false)
	return nil
}

// Stream pushes one status, then parks until the server stops it.
func (r *stubRepl) Stream(from uint64, send func(payload []byte) error, stop <-chan struct{}) error {
	if err := send(EncodeReplStatus(&r.status)); err != nil {
		return err
	}
	<-stop
	return nil
}

// subscribe performs the subscription handshake on a test client and
// consumes the stub's initial status push.
func (c *testClient) subscribe(t *testing.T) {
	t.Helper()
	c.id++
	c.send(EncodeRequest(&Request{Op: OpReplSubscribe, ID: c.id, From: 0}))
	if resp := c.recv(OpReplSubscribe); resp.Err != nil {
		t.Fatalf("subscribe: %v", resp.Err)
	}
	msg := c.recvRepl(t)
	if msg.Status == nil {
		t.Fatalf("first push is not a status: %+v", msg)
	}
}

// recvRepl reads one push frame off a subscribed connection.
func (c *testClient) recvRepl(t *testing.T) *ReplMessage {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := readFrame(c.br, DefaultMaxFrame)
	if err != nil {
		t.Fatalf("recv push: %v", err)
	}
	msg, err := DecodeReplMessage(payload)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestServeDrainNotifiesSubscribers is the graceful-shutdown regression
// test: a draining server must push the typed ErrCodeShuttingDown frame to
// its replication subscribers — the signal a follower uses to record
// "drain" instead of "crash" — and Shutdown must not hang on the parked
// stream.
func TestServeDrainNotifiesSubscribers(t *testing.T) {
	repl := &stubRepl{status: ReplStatus{Role: RolePrimary, Next: 42, PrimaryNext: 42}}
	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{Repl: repl, Logf: t.Logf})
	c := dialTest(t, s.Addr().String())
	c.subscribe(t)

	done := make(chan struct{})
	go func() {
		shutdownServer(t, s)
		close(done)
	}()

	// The next push the subscriber sees must be the typed drain notice.
	deadline := time.Now().Add(10 * time.Second)
	var sawDrain bool
	for time.Now().Before(deadline) && !sawDrain {
		msg := c.recvRepl(t)
		if msg.Err != nil {
			if msg.Err.Code != ErrCodeShuttingDown {
				t.Fatalf("typed frame code %d, want shutting-down", msg.Err.Code)
			}
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("drain frame never arrived")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on a parked replication stream")
	}
	c.expectClosed()
}

// TestServeSubscribeWithoutRepl: a server with no Replicator refuses the
// subscription with a typed error and drops the connection — it never
// turns into a push stream.
func TestServeSubscribeWithoutRepl(t *testing.T) {
	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{Logf: t.Logf})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())
	c.send(EncodeRequest(&Request{Op: OpReplSubscribe, ID: 1, From: 0}))
	resp := c.recv(OpReplSubscribe)
	if resp.Err == nil || resp.Err.Code != ErrCodeBadRequest {
		t.Fatalf("subscribe on repl-less server: %+v", resp)
	}
	c.expectClosed()
}

// TestServeReadOnlyGate: ingest at a follower-fronting server is refused
// with ErrCodeReadOnly; queries and replication control ops still work.
func TestServeReadOnlyGate(t *testing.T) {
	repl := &stubRepl{status: ReplStatus{Role: RoleFollower, Next: 10, PrimaryNext: 14, LagSeconds: 0.5}}
	repl.readOnly.Store(true)
	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{Repl: repl, Logf: t.Logf})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	resp := c.rpcAllowErr(&Request{Op: OpActivateBatch, Batch: testStream(1, 4)[0]})
	if resp.Err == nil || resp.Err.Code != ErrCodeReadOnly {
		t.Fatalf("follower ingest: %+v", resp)
	}

	// Queries pass, and stats carry the replication health.
	stats := c.rpc(&Request{Op: OpStats}).Stats
	if stats.Role != RoleFollower {
		t.Fatalf("stats role %d, want follower", stats.Role)
	}
	if stats.ReplLagFrames != 4 {
		t.Fatalf("stats lag %d frames, want 4", stats.ReplLagFrames)
	}
	if rs := c.rpc(&Request{Op: OpReplStatus}).Repl; rs.Role != RoleFollower || rs.Next != 10 {
		t.Fatalf("repl status: %+v", rs)
	}

	// Promotion flips the gate.
	c.rpc(&Request{Op: OpPromote})
	if repl.promotes.Load() != 1 {
		t.Fatal("promote did not reach the replicator")
	}
	if resp := c.rpcAllowErr(&Request{Op: OpActivateBatch, Batch: testStream(1, 4)[0]}); resp.Err != nil {
		t.Fatalf("post-promotion ingest: %v", resp.Err)
	}
}

// TestServeReplOpsWithoutRepl: replication control ops on a repl-less
// server are typed bad requests, not crashes.
func TestServeReplOpsWithoutRepl(t *testing.T) {
	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{Logf: t.Logf})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())
	for _, op := range []uint8{OpReplStatus, OpPromote} {
		resp := c.rpcAllowErr(&Request{Op: op})
		if resp.Err == nil || resp.Err.Code != ErrCodeBadRequest {
			t.Fatalf("op %d on repl-less server: %+v", op, resp)
		}
	}
}
