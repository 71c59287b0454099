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
// clusters, distance/attraction estimates, tierank, evolution, traces,
// stats, replication status): up to attempts total tries per call,
// redialing between tries, with capped exponential backoff plus jitter
// starting at min and capped at max. Retried errors are transport failures
// (broken or refused connections) and the server's typed overloaded reply
// — the two cases where the same bytes can safely be asked again. Ingest
// (ActivateBatch) is NEVER retried: a write whose reply was lost may have
// been applied, and replaying it would double activations. Mutating ops
// (watch, drain-events, promote) and view calls (whose session dies with
// the connection) are likewise excluded.
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
	// epoch counts connections: connectLocked bumps it, and a View is good
	// only on the connection it was opened on (the server numbers views per
	// connection, restarting at 1).
	epoch uint64
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
	c.epoch++
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

// ErrViewLost is returned by calls on a View whose connection has since
// been closed or replaced: its server-side session died with it, and the
// same view ID on the new connection is someone else's session.
var ErrViewLost = errors.New("client: view lost with its connection; open a new one")

// call runs one request, resending it per WithRetry when the op's row in
// the wire's op table says an identical resend is safe. Without WithRetry
// it is exactly one attempt.
func (c *Client) call(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	resp, _, err := c.callOn(ctx, req, 0)
	return resp, err
}

// callOn is call pinned to a connection: a nonzero epoch must still be the
// live connection's, or the call fails with ErrViewLost before touching
// the wire. It also returns the epoch the exchange ran on.
func (c *Client) callOn(ctx context.Context, req *serve.Request, epoch uint64) (*serve.Response, uint64, error) {
	resp, on, err := c.attempt(ctx, req, epoch)
	if c.retries == 0 || !serve.ResendSafe(req.Op) || !retryable(err) {
		return resp, on, err
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
			return nil, 0, ctx.Err()
		case <-timer.C:
		}
		resp, on, err = c.attempt(ctx, req, epoch)
	}
	return resp, on, err
}

// attempt runs one request/response exchange. A server error reply comes
// back as *serve.WireError; transport errors drop the connection so the
// next call redials. When a tracer samples the call, a client-side span
// wraps the exchange and its context rides the request.
func (c *Client) attempt(ctx context.Context, req *serve.Request, epoch uint64) (*serve.Response, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != 0 && (c.conn == nil || c.epoch != epoch) {
		return nil, 0, ErrViewLost
	}
	if c.conn == nil {
		if err := c.connectLocked(); err != nil { //anclint:ignore lockorder c.mu is the connection serializer; DialTimeout bounds the hold
			return nil, 0, err
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
	return resp, c.epoch, err
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

// Watch enables server-side cluster-event recording for node v.
func (c *Client) Watch(ctx context.Context, v int) error {
	_, err := c.call(ctx, &serve.Request{Op: serve.OpWatch, Node: uint32(v)})
	return err
}

// Unwatch stops watching v.
func (c *Client) Unwatch(ctx context.Context, v int) error {
	_, err := c.call(ctx, &serve.Request{Op: serve.OpUnwatch, Node: uint32(v)})
	return err
}

// DrainEvents returns and clears the accumulated cluster events plus the
// overflow-drop count.
func (c *Client) DrainEvents(ctx context.Context) ([]anc.ClusterEvent, uint64, error) {
	resp, err := c.call(ctx, &serve.Request{Op: serve.OpDrainEvents})
	if err != nil {
		return nil, 0, err
	}
	return resp.Events, resp.Dropped, nil
}

// View is a server-side zoom session bound to the connection it was opened
// on. Its state does not survive a reconnect: once that connection is
// closed or broken, calls on the view fail with ErrViewLost without
// touching the wire.
type View struct {
	c     *Client
	id    uint32
	epoch uint64 // the Client.epoch of the connection that holds the session
	level int
}

// OpenView opens a zoom session positioned at the server's Θ(√n) level.
func (c *Client) OpenView(ctx context.Context) (*View, error) {
	resp, epoch, err := c.callOn(ctx, &serve.Request{Op: serve.OpViewOpen}, 0)
	if err != nil {
		return nil, err
	}
	return &View{c: c, id: resp.View, epoch: epoch, level: int(resp.Level)}, nil
}

// Level reports the view's granularity level as of the last server reply.
func (v *View) Level() int { return v.level }

// ZoomIn moves one level finer; false at the finest level.
func (v *View) ZoomIn(ctx context.Context) (bool, error) {
	return v.zoom(ctx, serve.OpViewZoomIn)
}

// ZoomOut moves one level coarser; false at the coarsest level.
func (v *View) ZoomOut(ctx context.Context) (bool, error) {
	return v.zoom(ctx, serve.OpViewZoomOut)
}

// call runs one request on the view's own connection, or fails.
func (v *View) call(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	resp, _, err := v.c.callOn(ctx, req, v.epoch)
	return resp, err
}

func (v *View) zoom(ctx context.Context, op uint8) (bool, error) {
	resp, err := v.call(ctx, &serve.Request{Op: op, View: v.id})
	if err != nil {
		return false, err
	}
	v.level = int(resp.Level)
	return resp.Moved, nil
}

// Clusters reports all clusters at the view's current level.
func (v *View) Clusters(ctx context.Context) ([][]int, error) {
	resp, err := v.call(ctx, &serve.Request{Op: serve.OpViewClusters, View: v.id})
	if err != nil {
		return nil, err
	}
	return resp.Clusters, nil
}

// ClusterOf reports the cluster containing x at the view's current level.
func (v *View) ClusterOf(ctx context.Context, x int) ([]int, error) {
	resp, err := v.call(ctx, &serve.Request{Op: serve.OpViewClusterOf, View: v.id, Node: uint32(x)})
	if err != nil {
		return nil, err
	}
	return resp.Members, nil
}

// Close releases the server-side session.
func (v *View) Close(ctx context.Context) error {
	_, err := v.call(ctx, &serve.Request{Op: serve.OpViewClose, View: v.id})
	return err
}
