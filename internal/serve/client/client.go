// Package client is the typed Go client for the ancserve wire protocol:
// one TCP connection, synchronous request/response calls, per-call context
// deadlines, and transparent reconnection after a broken connection.
//
// A Client is safe for concurrent use; calls serialize on the connection
// (the protocol answers requests in order). For parallel load, open
// several clients.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"anc"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/backoff"
)

// Option configures a Client at Dial time.
type Option func(*Client)

// WithTimeout sets the default per-call deadline used when the caller's
// context carries none (default 5s).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithMaxFrame bounds response frames the client will accept (default
// serve.DefaultMaxFrame, matching the server).
func WithMaxFrame(n int) Option {
	return func(c *Client) { c.maxFrame = n }
}

// WithTracer records client-side spans for calls t samples and
// propagates their trace context on the wire, so the server's flight
// recorder stitches the client call, the serve stages and (on a
// replicated setup) the follower apply into one trace.
func WithTracer(t *trace.Tracer) Option {
	return func(c *Client) { c.tracer = t }
}

// WithRetry enables automatic retries for the calls whose op the wire's op
// table marks safe to resend (serve.ResendSafe: the read-only queries —
// clusters, distance/attraction estimates, tierank, evolution, events, traces,
// stats, replication status): up to attempts total tries per call,
// redialing between tries, with capped exponential backoff plus jitter
// starting at min and capped at max. Retried errors are transport failures
// (broken or refused connections) and the server's typed overloaded reply
// — the two cases where the same bytes can safely be asked again. Ingest
// (ActivateBatch) is NEVER retried: a write whose reply was lost may have
// been applied, and replaying it would double activations. Promote, which
// mutates the node's role, is likewise excluded.
func WithRetry(attempts int, min, max time.Duration) Option {
	return func(c *Client) {
		if attempts < 1 {
			attempts = 1
		}
		if min <= 0 {
			min = 25 * time.Millisecond
		}
		if max < min {
			max = min
		}
		c.retries = attempts - 1
		c.retryMin, c.retryMax = min, max
	}
}

// Client is a connection to an ancserve server.
type Client struct {
	addr     string
	timeout  time.Duration
	maxFrame int

	retries            int // extra attempts for resend-safe ops
	retryMin, retryMax time.Duration
	tracer             *trace.Tracer

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	nextID uint64
}

// Dial connects to an ancserve server and performs the version handshake.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, timeout: 5 * time.Second, maxFrame: serve.DefaultMaxFrame}
	for _, opt := range opts {
		opt(c)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The mutex is the connection serializer by design: every caller of the
	// dial path must see a settled conn, and the dial timeout bounds the hold.
	if err := c.connectLocked(); err != nil { //anclint:ignore lockorder c.mu is the connection serializer; DialTimeout bounds the hold
		return nil, err
	}
	return c, nil
}

// connectLocked (re)establishes the connection and handshake. Callers hold
// c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReader(conn)
	if err := serve.WritePreamble(conn); err != nil {
		conn.Close()
		return err
	}
	if err := serve.ReadPreamble(br); err != nil {
		conn.Close()
		return err
	}
	c.conn = conn
	c.br = br
	c.bw = bufio.NewWriter(conn)
	return nil
}

// dropLocked discards a connection whose framing can no longer be trusted,
// so the next call reconnects.
func (c *Client) dropLocked() {
	if c.conn != nil {
		c.conn.Close() //anclint:ignore droppederr the connection is already broken
		c.conn = nil
	}
}

// Close closes the connection. The client is reusable afterwards: the next
// call reconnects.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call runs one request, resending it per WithRetry when the op's row in
// the wire's op table says an identical resend is safe. Without WithRetry
// it is exactly one attempt.
func (c *Client) call(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	resp, err := c.attempt(ctx, req)
	if c.retries == 0 || !serve.ResendSafe(req.Op) || !retryable(err) {
		return resp, err
	}
	// One Backoff per retrying call: queries run concurrently across
	// goroutines, and a Backoff is single-owner by contract. Seed 0 =
	// wall-clock jitter, so parallel clients don't retry in lockstep.
	bo := backoff.New(c.retryMin, c.retryMax, 0)
	for i := 0; i < c.retries && retryable(err); i++ {
		timer := time.NewTimer(bo.Next())
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
		resp, err = c.attempt(ctx, req)
	}
	return resp, err
}

// attempt runs one request/response exchange. A server error reply comes
// back as *serve.WireError; transport errors drop the connection so the
// next call redials. When a tracer samples the call, a client-side span
// wraps the exchange and its context rides the request.
func (c *Client) attempt(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if err := c.connectLocked(); err != nil { //anclint:ignore lockorder c.mu is the connection serializer; DialTimeout bounds the hold
			return nil, err
		}
	}
	var sp trace.SpanHandle
	if c.tracer.ShouldTrace(trace.Context{}) {
		sp = c.tracer.Start("client."+serve.OpName(req.Op), trace.Context{})
		req.Trace = sp.Context()
	}
	resp, err := c.exchangeLocked(ctx, req)
	if err != nil {
		sp.Fail()
	}
	sp.End()
	return resp, err
}

// exchangeLocked is attempt's wire half: deadline, write, read, validate.
func (c *Client) exchangeLocked(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		c.dropLocked()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	if err := serve.WriteRequest(c.bw, req); err != nil {
		c.dropLocked()
		return nil, err
	}
	resp, err := serve.ReadResponse(c.br, req.Op, c.maxFrame)
	if err != nil {
		c.dropLocked()
		return nil, err
	}
	if resp.ID != req.ID {
		// The stream is out of sync (e.g. a stale reply after a timeout);
		// nothing read from this connection can be trusted anymore.
		c.dropLocked()
		return nil, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Err != nil {
		// A typed server reply: the connection itself is fine unless the
		// server said framing broke (it closes the connection after those).
		if resp.Err.Code == serve.ErrCodeBadFrame || resp.Err.Code == serve.ErrCodeFrameTooBig {
			c.dropLocked()
		}
		return nil, resp.Err
	}
	return resp, nil
}

// retryable reports whether resending a resend-safe request is useful: the
// call never reached a decision (transport failure) or the server
// explicitly asked for a retry (overloaded). Typed rejections are final.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if we, ok := err.(*serve.WireError); ok {
		return we.Code == serve.ErrCodeOverloaded
	}
	return true
}

// ActivateBatch sends a batch through the server's group-commit ingest
// path. A nil return means the whole batch is applied (and durable, when
// the server fronts a DurableNetwork with SyncAlways).
func (c *Client) ActivateBatch(ctx context.Context, batch []anc.Activation) error {
	_, err := c.call(ctx, &serve.Request{Op: serve.OpActivateBatch, Batch: batch})
	return err
}

// Clusters reports all clusters at a granularity level.
func (c *Client) Clusters(ctx context.Context, level int) ([][]int, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpClusters, Level: int32(level)})
	if err != nil {
		return nil, err
	}
	return resp.Clusters, nil
}

// EvenClusters reports all even-clustering clusters at a level.
func (c *Client) EvenClusters(ctx context.Context, level int) ([][]int, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpEvenClusters, Level: int32(level)})
	if err != nil {
		return nil, err
	}
	return resp.Clusters, nil
}

// ClusterOf reports the local cluster of v at a level.
func (c *Client) ClusterOf(ctx context.Context, v, level int) ([]int, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpClusterOf, Node: uint32(v), Level: int32(level)})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// SmallestClusterOf reports the finest-granularity cluster containing v.
func (c *Client) SmallestClusterOf(ctx context.Context, v int) ([]int, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpSmallestClusterOf, Node: uint32(v)})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// EstimateDistance answers a sketch distance query.
func (c *Client) EstimateDistance(ctx context.Context, u, v int) (float64, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpEstimateDistance, U: uint32(u), V: uint32(v)})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// EstimateAttraction answers an attraction-strength query.
func (c *Client) EstimateAttraction(ctx context.Context, u, v int) (float64, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpEstimateAttraction, U: uint32(u), V: uint32(v)})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// TieRank answers an eigenvector-centrality query: the top-k nodes
// globally and, for level >= 0, per cluster at that level (level -1
// skips the per-cluster listing). Read-only and idempotent, so it is
// retried across reconnects and served by followers.
func (c *Client) TieRank(ctx context.Context, level, k int) (anc.TieRankResult, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpTieRank, Level: int32(level), K: int32(k)})
	if err != nil {
		return anc.TieRankResult{}, err
	}
	return resp.Rank, nil
}

// Evolution reads the server's buffered cluster-evolution events with
// sequence numbers after since, plus the newest sequence number (the
// cursor for the next call) and the cumulative overwrite count. The
// read is non-draining, so it is retried across reconnects without
// losing events.
func (c *Client) Evolution(ctx context.Context, since uint64) ([]anc.EvolutionEvent, uint64, uint64, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpEvolution, From: since})
	if err != nil {
		return nil, 0, 0, err
	}
	return resp.Evo, resp.Seq, resp.Dropped, nil
}

// Traces reads the server's trace flight recorder: the rendered form of
// trace id (0 for all recent traces), as an indented text tree or, with
// asJSON, a JSON document. Read-only and idempotent, so it is retried.
func (c *Client) Traces(ctx context.Context, id uint64, asJSON bool) ([]byte, error) {
	var format int32
	if asJSON {
		format = 1
	}
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpTraces, From: id, K: format})
	if err != nil {
		return nil, err
	}
	return resp.Raw, nil
}

// Stats reads the server's health snapshot: network shape, ingest
// progress, and load gauges.
func (c *Client) Stats(ctx context.Context) (serve.StatsReply, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpStats})
	if err != nil {
		return serve.StatsReply{}, err
	}
	return resp.Stats, nil
}

// ReplStatus reads the server's replication health: role, log cursors,
// lag, and reconnect history. Idempotent, so it participates in WithRetry.
func (c *Client) ReplStatus(ctx context.Context) (serve.ReplStatus, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpReplStatus})
	if err != nil {
		return serve.ReplStatus{}, err
	}
	return resp.Repl, nil
}

// Promote asks a follower-fronting server to promote its node: seal the
// log and start accepting ingest. Not retried automatically — it mutates
// the node's role (though a repeat against an already-promoted node is a
// no-op server-side).
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.call(ctx, &serve.Request{Op: serve.OpPromote})
	return err
}

// View is a zoom position over the server's granularity levels. The level
// lives in the View, so a zoom costs no round trip, and its reads are the
// plain Clusters/ClusterOf ops at that level: resend-safe under WithRetry
// and good across reconnects. A View is not safe for concurrent use.
type View struct {
	c      *Client
	level  int
	levels int
}

// OpenView opens a view positioned at the server's Θ(√n) level.
func (c *Client) OpenView(ctx context.Context) (*View, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	return &View{c: c, level: int(st.SqrtLevel), levels: int(st.Levels)}, nil
}

// Level reports the view's granularity level.
func (v *View) Level() int { return v.level }

// ZoomIn moves one level finer; false at the finest level. It never
// touches the wire, so the error is always nil.
func (v *View) ZoomIn(context.Context) (bool, error) { return v.zoom(v.level + 1), nil }

// ZoomOut moves one level coarser; false at the coarsest level. It never
// touches the wire, so the error is always nil.
func (v *View) ZoomOut(context.Context) (bool, error) { return v.zoom(v.level - 1), nil }

// zoom moves the view to next when it lies within [1, levels].
func (v *View) zoom(next int) bool {
	if next < 1 || next > v.levels {
		return false
	}
	v.level = next
	return true
}

// Clusters reports all clusters at the view's level.
func (v *View) Clusters(ctx context.Context) ([][]int, error) {
	return v.c.Clusters(ctx, v.level)
}

// ClusterOf reports the cluster containing x at the view's level.
func (v *View) ClusterOf(ctx context.Context, x int) ([]int, error) {
	return v.c.ClusterOf(ctx, x, v.level)
}

// ErrRestarted is Watch.Poll's report of a gap: the server's newest
// sequence number fell below the watch's cursor, so the server restarted
// and the changes since the last poll are lost. The watch has moved its
// cursor to the server's; resync the watched nodes with ClusterOf.
var ErrRestarted = errors.New("client: event sequence went backwards: the server restarted")

// Watch follows the cluster-change events of a node set: the paper's
// change reports on user-chosen nodes. The cursor and the node set live
// in the Watch, and each Poll is one read-only events call: resend-safe
// under WithRetry, good across reconnects, and answered alike by every
// caught-up replica. Any number of watches, on any connections, may cover
// the same nodes without taking events from each other. A Watch is not
// safe for concurrent use.
type Watch struct {
	c     *Client
	nodes []int
	seq   uint64
}

// OpenWatch opens a watch on nodes positioned at the server's newest
// change, so the first Poll reports what changes from now on.
func (c *Client) OpenWatch(ctx context.Context, nodes ...int) (*Watch, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpEvents, From: math.MaxUint64})
	if err != nil {
		return nil, err
	}
	return &Watch{c: c, nodes: append([]int(nil), nodes...), seq: resp.Seq}, nil
}

// Seq reports the watch's cursor: the sequence number of the newest change
// it has read.
func (w *Watch) Seq() uint64 { return w.seq }

// Poll returns the events on the watched nodes since the last poll, in
// order, and missed: the changes the server's bounded ring overwrote before
// this poll could read them. Resync the watched nodes with ClusterOf when
// missed is nonzero, and when the error is ErrRestarted.
func (w *Watch) Poll(ctx context.Context) ([]anc.ClusterEvent, uint64, error) {
	resp, err := w.c.call(ctx, &serve.Request{Op: serve.OpEvents, From: w.seq, Nodes: w.nodes})
	if err != nil {
		return nil, 0, err
	}
	restarted := resp.Seq < w.seq
	w.seq = resp.Seq
	if restarted {
		return nil, 0, ErrRestarted
	}
	return resp.Events, resp.Dropped, nil
}
