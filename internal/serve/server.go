package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"anc"
	"anc/internal/obs"
	"anc/internal/obs/trace"
)

// Backend is the facade the server fronts: every method must be safe for
// concurrent use. ConcurrentNetwork and DurableNetwork both satisfy it;
// with a DurableNetwork the served stream is additionally write-ahead
// logged, and Shutdown checkpoints before closing.
type Backend interface {
	// ActivateBatchTraced is the one ingest method: the backend records its
	// WAL-append, fsync and core-apply stages as children of sp, and a zero
	// handle — every untraced request — makes each of those a no-op.
	ActivateBatchTraced(batch []anc.Activation, sp trace.SpanHandle) error
	Clusters(level int) [][]int
	EvenClusters(level int) [][]int
	ClusterOf(v, level int) []int
	SmallestClusterOf(v int) []int
	EstimateDistance(u, v int) float64
	EstimateAttraction(u, v int) float64
	Events(since uint64, nodes []int) ([]anc.ClusterEvent, uint64, uint64)
	TieRank(level, k int) anc.TieRankResult
	Evolution(since uint64) ([]anc.EvolutionEvent, uint64, uint64)
	Stats() anc.Stats
}

// durableBackend is the optional durability surface a Backend may expose
// (DurableNetwork does); Shutdown uses it for the final checkpoint+close,
// Kill for the crash-style close.
type durableBackend interface {
	Checkpoint() error
	Close() error
}

// Replicator is the replication surface a server exposes when
// Config.Repl is set (repl.Node implements it for both roles). Status
// and ReadOnly must be safe for concurrent use; Stream is called once
// per subscriber connection, on that connection's goroutine.
type Replicator interface {
	// Status reports the node's replication health — the body of
	// OpReplStatus replies and the replication fields of OpStats.
	Status() ReplStatus
	// ReadOnly reports whether ingest must be refused (an unpromoted
	// follower).
	ReadOnly() bool
	// Promote re-enables ingest on a follower; on a primary it is a
	// harmless no-op. An error is answered with ErrCodeRejected.
	Promote() error
	// Stream serves one replication subscription from frame index from:
	// it calls send with encoded push payloads (EncodeReplFrames /
	// EncodeReplStatus / EncodeReplSnapshot) until send fails or stop
	// closes. The error is for the connection log only — the subscriber
	// learns about the end of the stream from the close (or the typed
	// drain frame the server appends).
	Stream(from uint64, send func(payload []byte) error, stop <-chan struct{}) error
}

// Config tunes a Server. The zero value is usable; every field has a
// serving-grade default.
type Config struct {
	// MaxInflight is the admission gate: the number of requests allowed
	// to execute at once across all connections (default 64). Requests
	// that cannot be admitted within the request deadline are answered
	// with ErrCodeOverloaded.
	MaxInflight int
	// IngestQueue is the capacity of the bounded channel funneling every
	// ActivateBatch into the single writer goroutine (default 64
	// batches). A full queue is backpressure: the submitting request
	// waits until its deadline, then fails with ErrCodeOverloaded.
	IngestQueue int
	// RequestTimeout is the per-request deadline covering admission,
	// queueing and execution (default 5s).
	RequestTimeout time.Duration
	// MaxFrame bounds request and response payloads (default
	// DefaultMaxFrame).
	MaxFrame int
	// Logf, when non-nil, receives the server's own log lines (slow
	// requests, handshake failures, stream errors).
	Logf func(format string, args ...interface{})

	// Obs, when non-nil, attaches the server's metrics (anc_serve_*
	// families: per-op request counts, error counts by code, handling
	// latency, frame bytes, connection/inflight/queue gauges) to the
	// registry. Nil — the default — keeps observability off at near zero
	// cost. Pass the same registry to the backend's layers (DurableConfig.Obs
	// or Network.Instrument) so one scrape covers the whole process.
	Obs *obs.Registry
	// MetricsAddr, when non-empty, starts an HTTP listener on that address
	// (e.g. "127.0.0.1:9100") serving /metrics (Prometheus text exposition
	// of Obs), /healthz (a JSON health summary from the backend's Stats),
	// /debug/traces (the Tracer's flight recorder, when Tracer is set) and
	// net/http/pprof under /debug/pprof/. The listener stops with the
	// server on both Shutdown and Kill.
	MetricsAddr string
	// Tracer, when non-nil, records request traces: head-sampled spans
	// covering the whole request (with queue-wait, WAL, fsync, repair and
	// reply children on the ingest path), kept in the tracer's flight
	// recorder and served on /debug/traces and OpTraces. Requests carrying
	// a wire trace context are always traced. Nil keeps the hot path at
	// zero allocations.
	Tracer *trace.Tracer
	// SlowQuery, when positive, counts every request whose handling takes
	// at least this long (anc_serve_slow_requests_total) and logs it
	// through Logf, rate-limited to one line per second so a latency storm
	// cannot flood the log.
	SlowQuery time.Duration

	// Labels, when non-nil, is the served graph file's label table — the
	// original → dense node-ID map anc.LoadEdgeList returns — and makes the
	// wire speak the file's original IDs (see labels.go). Start fails if a
	// label does not fit the wire's uint32 node width.
	Labels map[int64]int32

	// Repl, when non-nil, enables the replication ops: OpReplSubscribe
	// streams WAL frames to followers, OpReplStatus/OpStats report
	// replication health, OpPromote flips a follower to accepting writes,
	// and ingest is refused with ErrCodeReadOnly while Repl.ReadOnly().
	Repl Replicator
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// ingestReq is one batch waiting for the writer goroutine. done is
// buffered so the writer never blocks on a requester that gave up.
// enq/qspan/span carry the request's queue-wait instrumentation: enq is
// the enqueue instant (zero when neither metrics nor tracing are on),
// qspan the open "queue.wait" child the writer ends on dequeue, span the
// request's root for the backend's WAL/apply children.
type ingestReq struct {
	batch []anc.Activation
	done  chan error
	enq   time.Time
	qspan trace.SpanHandle
	span  trace.SpanHandle
}

// Server owns a listener, one writer goroutine, and a goroutine per
// connection. Queries execute concurrently under the backend's shared
// lock; all ingest funnels through the writer so the WAL group-commit
// path sees one batch at a time.
type Server struct {
	cfg     Config
	backend Backend
	labels  *labelTable // nil unless cfg.Labels needs translating; set by Start
	log     *obs.Logger

	lis      net.Listener
	ingestCh chan ingestReq
	gate     chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	draining   atomic.Bool
	killed     atomic.Bool
	inflight   atomic.Int32
	queued     atomic.Int32
	acceptDone chan struct{}
	writerDone chan struct{}
	drainCh    chan struct{} // closed at the start of Shutdown/Kill: the stop signal for streams
	drainOnce  sync.Once
	connWG     sync.WaitGroup
	started    bool
	stopOnce   sync.Once

	startedAt   time.Time      // set by Start; the base of healthz's uptime_seconds
	met         *serverMetrics // nil handles unless cfg.Obs was set; all nil-safe
	metricsLis  net.Listener
	metricsSrv  *http.Server
	metricsDone chan struct{}
	metricsOnce sync.Once
	slowLogAt   atomic.Int64 // unix nanos of the last slow-request log line
}

// New builds a server over backend. Call Start to begin serving.
func New(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		backend:    backend,
		ingestCh:   make(chan ingestReq, cfg.IngestQueue),
		gate:       make(chan struct{}, cfg.MaxInflight),
		conns:      map[net.Conn]struct{}{},
		acceptDone: make(chan struct{}),
		writerDone: make(chan struct{}),
		drainCh:    make(chan struct{}),
		log:        obs.NewLogger("serve", obs.LevelInfo, cfg.Logf),
	}
	s.met = newServerMetrics(cfg.Obs, s)
	return s
}

// Start listens on addr (e.g. "127.0.0.1:0" for an ephemeral port) and
// serves in background goroutines until Shutdown or Kill.
func (s *Server) Start(addr string) error {
	var err error
	if s.labels, err = newLabelTable(s.cfg.Labels); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.startedAt = time.Now()
	if s.cfg.MetricsAddr != "" {
		mlis, err := net.Listen("tcp", s.cfg.MetricsAddr)
		if err != nil {
			lis.Close()
			return fmt.Errorf("serve: metrics listener: %w", err)
		}
		s.metricsLis = mlis
		var traces http.Handler
		if s.cfg.Tracer != nil {
			traces = s.cfg.Tracer.Handler()
		}
		s.metricsSrv = &http.Server{Handler: obs.NewMux(s.cfg.Obs, http.HandlerFunc(s.healthz), traces)}
		s.metricsDone = make(chan struct{})
		go func() {
			defer close(s.metricsDone)
			s.metricsSrv.Serve(mlis)
		}()
	}
	s.lis = lis
	s.started = true
	go s.acceptLoop()
	go s.writerLoop()
	return nil
}

// Addr returns the bound listener address (valid after Start).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// MetricsAddr returns the bound metrics listener address, or "" when
// Config.MetricsAddr was empty (valid after Start).
func (s *Server) MetricsAddr() string {
	if s.metricsLis == nil {
		return ""
	}
	return s.metricsLis.Addr().String()
}

// healthz answers the metrics listener's health endpoint: one JSON object
// from a single Stats read, cheap enough for aggressive probe intervals.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	bs := s.backend.Stats()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status             string  `json:"status"`
		Version            string  `json:"version"`
		UptimeSeconds      float64 `json:"uptime_seconds"`
		Goroutines         int     `json:"goroutines"`
		Nodes              int     `json:"nodes"`
		Edges              int     `json:"edges"`
		Activations        uint64  `json:"activations"`
		Now                float64 `json:"now"`
		EvolutionDrops     uint64  `json:"evolution_drops"`
		Inflight           int32   `json:"inflight"`
		Queued             int32   `json:"queued"`
		CacheHits          uint64  `json:"cache_hits"`
		CacheMisses        uint64  `json:"cache_misses"`
		CacheInvalidations uint64  `json:"cache_invalidations"`
	}{status, obs.BuildVersion, time.Since(s.startedAt).Seconds(), runtime.NumGoroutine(),
		bs.Nodes, bs.Edges, bs.Activations, bs.Now, bs.EvolutionDrops,
		s.inflight.Load(), s.queued.Load(), bs.CacheHits, bs.CacheMisses, bs.CacheInvalidations})
}

// stopMetrics closes the metrics HTTP listener and waits for its serve
// goroutine — shared by Shutdown and Kill, idempotent so both may run.
func (s *Server) stopMetrics() {
	s.metricsOnce.Do(func() {
		if s.metricsSrv == nil {
			return
		}
		s.metricsSrv.Close() //anclint:ignore droppederr teardown of the scrape listener loses no state
		<-s.metricsDone
	})
}

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed: drain or kill
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// writerLoop is the single writer goroutine: every batch from every
// connection is applied here, one at a time, through the backend's
// group-commit path (one WAL frame + fsync per batch on a
// DurableNetwork). It drains the queue fully on shutdown so every batch
// that entered the queue before the drain is committed, and aborts
// without applying on Kill.
func (s *Server) writerLoop() {
	defer close(s.writerDone)
	for req := range s.ingestCh {
		s.queued.Add(-1)
		if !req.enq.IsZero() {
			s.met.queueWaitSeconds.Observe(time.Since(req.enq).Seconds())
		}
		req.qspan.End()
		if s.killed.Load() {
			req.done <- &WireError{Code: ErrCodeShuttingDown, Msg: "server killed"}
			continue
		}
		req.done <- s.backend.ActivateBatchTraced(req.batch, req.span)
	}
}

// Shutdown gracefully drains the server: stop accepting, answer new
// requests with ErrCodeShuttingDown, flush the ingest queue through the
// writer, checkpoint and close a durable backend, then close every
// connection. It returns ctx.Err() if the drain did not finish in time
// (the server is then torn down non-gracefully).
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.started {
		return nil
	}
	s.draining.Store(true)
	// Stop replication streams first: their connection goroutines are
	// parked in Stream, not readFrame, so without this signal connWG.Wait
	// would hang. Each stream then sends its typed drain frame (so
	// followers can tell drain from crash) before the connection closes.
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.lis.Close()
	<-s.acceptDone

	// Unblock connection readers parked in readFrame without yanking the
	// write side: in-flight responses (including the ShuttingDown replies)
	// still get out.
	s.mu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			conn.Close() //anclint:ignore droppederr read-side teardown of a draining connection
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		s.stopOnce.Do(func() { close(s.ingestCh) })
		<-s.writerDone
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeConns() // give up on stragglers
	}

	if d, ok := s.backend.(durableBackend); ok {
		if cerr := d.Checkpoint(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := d.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.closeConns()
	s.stopMetrics()
	return err
}

// Kill stops the server abruptly — the crash hook for recovery tests and
// the unclean-exit path: the listener and every connection close
// immediately, queued batches are dropped unapplied, and a durable
// backend is closed WITHOUT a checkpoint so the next start must recover
// by replaying the WAL.
func (s *Server) Kill() {
	if !s.started {
		return
	}
	s.killed.Store(true)
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.lis.Close() //anclint:ignore droppederr crash-style stop; the listener error is unrecoverable anyway
	<-s.acceptDone
	s.closeConns()
	s.connWG.Wait()
	s.stopOnce.Do(func() { close(s.ingestCh) })
	<-s.writerDone
	if d, ok := s.backend.(durableBackend); ok {
		d.Close() //anclint:ignore droppederr crash-style close; the WAL is already fsynced per policy
	}
	s.stopMetrics()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close() //anclint:ignore droppederr teardown of an abandoned connection loses no state
	}
	s.conns = map[net.Conn]struct{}{}
}

func (s *Server) serveConn(conn net.Conn) {
	s.met.connections.Inc()
	defer s.connWG.Done()
	defer func() {
		s.met.connections.Dec()
		conn.Close() //anclint:ignore droppederr the connection carries no durable state
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	// Handshake: the client speaks first; a silent or incompatible peer
	// is cut off rather than parked forever.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := ReadPreamble(br); err != nil {
		s.log.Warn("handshake failed", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := WritePreamble(conn); err != nil {
		return
	}

	for {
		payload, err := readFrame(br, s.cfg.MaxFrame)
		if err != nil {
			// Framing violations get a typed reply before the close;
			// anything else (EOF, reset, drain's CloseRead) just ends the
			// connection.
			var fe *frameError
			if errors.As(err, &fe) {
				s.writeReply(bw, s.errReply(0, fe.code, fe.msg))
			}
			return
		}
		s.met.bytesRead.Add(uint64(frameHeaderSize + len(payload)))
		req, err := DecodeRequest(payload)
		if err != nil {
			// The frame was intact (length+CRC verified), so framing is
			// still in sync: report and keep the connection.
			if werr := s.writeReply(bw, s.errReply(0, ErrCodeBadRequest, err.Error())); werr != nil {
				return
			}
			continue
		}
		if req.Op == OpReplSubscribe {
			// A subscription repurposes the connection as a one-way push
			// stream; when serveSubscribe returns the stream is over and
			// framing state is unknown, so the connection closes.
			s.serveSubscribe(conn, bw, req)
			return
		}
		payload, sp := s.handle(req)
		if err := s.reply(bw, payload, sp); err != nil {
			return
		}
	}
}

// reply writes one response frame, recording the write as the trace's
// "reply" child and the anc_serve_reply_seconds stage when instrumented;
// it then finishes the request's root span, failing it for error
// replies. The untraced, unobserved path stays clock-free.
func (s *Server) reply(bw *bufio.Writer, payload []byte, sp trace.SpanHandle) error {
	if s.cfg.Obs == nil && !sp.Active() {
		return s.writeReply(bw, payload)
	}
	child := sp.StartChild("reply")
	start := time.Now()
	err := s.writeReply(bw, payload)
	s.met.replySeconds.Observe(time.Since(start).Seconds())
	child.End()
	if len(payload) > 0 && payload[0] == statusErr {
		sp.Fail()
	}
	sp.End()
	return err
}

// serveSubscribe runs one replication stream on the subscriber's
// connection goroutine. It bypasses the admission gate — a stream is not
// a request and must not pin a MaxInflight slot for its whole life — and
// ends on send failure (peer gone, Kill) or on s.drainCh, in which case
// a graceful drain appends the typed ErrCodeShuttingDown frame so the
// follower records "drain", not "crash".
func (s *Server) serveSubscribe(conn net.Conn, bw *bufio.Writer, req *Request) {
	s.met.requests[req.Op].Inc()
	if s.cfg.Repl == nil {
		s.writeReply(bw, s.errReply(req.ID, ErrCodeBadRequest, "replication not enabled"))
		return
	}
	if s.draining.Load() {
		s.writeReply(bw, s.errReply(req.ID, ErrCodeShuttingDown, "server is draining"))
		return
	}
	if err := s.writeReply(bw, EncodeResponse(OpReplSubscribe, &Response{ID: req.ID})); err != nil {
		return
	}
	send := func(payload []byte) error {
		// A per-frame write deadline so a wedged follower cannot park this
		// goroutine past Shutdown's patience.
		conn.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		err := s.writeReply(bw, payload)
		conn.SetWriteDeadline(time.Time{})
		return err
	}
	if err := s.cfg.Repl.Stream(req.From, send, s.drainCh); err != nil {
		s.log.Warn("replication stream ended", "remote", conn.RemoteAddr(), "err", err)
	}
	if s.draining.Load() && !s.killed.Load() {
		send(s.errReply(0, ErrCodeShuttingDown, "server is draining"))
	}
}

// writeReply frames one response payload, counting the bytes put on the
// wire.
func (s *Server) writeReply(bw *bufio.Writer, payload []byte) error {
	s.met.bytesWritten.Add(uint64(frameHeaderSize + len(payload)))
	return writeFrame(bw, payload)
}

// errReply encodes a typed error reply, counting it by code name so error
// rates are visible per class (anc_serve_errors_total). Every server-
// originated error reply is minted here.
func (s *Server) errReply(id uint64, code uint8, msg string) []byte {
	s.met.errors.With(errCodeName(code)).Inc()
	return EncodeError(id, code, msg)
}

// handle counts, times and dispatches one request: the wrapper observes
// whole handling latency (admission wait included) into the ingest or
// query histogram, applies the slow-request threshold, and opens the
// request's root span when the tracer samples it (or the wire context
// demands it). The caller finishes the span after writing the reply.
// When observability, tracing and the threshold are all off it never
// reads the clock.
func (s *Server) handle(req *Request) ([]byte, trace.SpanHandle) {
	s.met.requests[req.Op].Inc()
	var sp trace.SpanHandle
	if s.cfg.Tracer.ShouldTrace(req.Trace) {
		sp = s.cfg.Tracer.Start("serve."+OpName(req.Op), req.Trace)
	}
	if s.cfg.Obs == nil && s.cfg.SlowQuery <= 0 && !sp.Active() {
		return s.handleRequest(req, sp), sp
	}
	start := time.Now()
	payload := s.handleRequest(req, sp)
	elapsed := time.Since(start)
	if req.Op == OpActivateBatch {
		s.met.ingestSeconds.Observe(elapsed.Seconds())
	} else {
		s.met.querySeconds.Observe(elapsed.Seconds())
	}
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		s.met.slowRequests.Inc()
		s.logSlow(req.Op, elapsed, sp.TraceID())
	}
	return payload, sp
}

// logSlow emits one rate-limited (1/s) log line for a slow request; the
// CAS keeps concurrent connections from stampeding the log while the
// counter still records every occurrence. traceID ties the line to the
// flight recorder (slow traces are always kept) — zero when untraced.
func (s *Server) logSlow(op uint8, elapsed time.Duration, traceID uint64) {
	now := time.Now().UnixNano()
	last := s.slowLogAt.Load()
	if now-last < int64(time.Second) || !s.slowLogAt.CompareAndSwap(last, now) {
		return
	}
	s.log.Warn("slow request",
		"op", OpName(op), "took", elapsed, "threshold", s.cfg.SlowQuery,
		"trace", trace.FormatID(traceID))
}

// handleRequest executes one request and returns the encoded response
// payload. Responses that would overflow MaxFrame are replaced by an
// ErrCodeInternal reply so the client's frame reader never faces an
// oversized frame.
func (s *Server) handleRequest(req *Request, sp trace.SpanHandle) []byte {
	deadline := time.NewTimer(s.cfg.RequestTimeout)
	defer deadline.Stop()

	if s.draining.Load() {
		return s.errReply(req.ID, ErrCodeShuttingDown, "server is draining")
	}

	// Still on the connection goroutine, before anything else can hold
	// the request: file labels become dense IDs in place.
	if err := s.labels.toDense(req); err != nil {
		return s.errReply(req.ID, ErrCodeRejected, err.Error())
	}

	// Admission gate: a slot must free up before the deadline.
	select {
	case s.gate <- struct{}{}:
	case <-deadline.C:
		return s.errReply(req.ID, ErrCodeOverloaded,
			fmt.Sprintf("no admission slot within %v", s.cfg.RequestTimeout))
	}
	s.inflight.Add(1)

	if req.Op == OpActivateBatch {
		defer func() { <-s.gate; s.inflight.Add(-1) }()
		return s.handleIngest(req, deadline, sp)
	}

	// Queries run in their own goroutine so an overlong one cannot hold
	// this connection past the deadline; the gate slot is released when
	// the query actually finishes, so runaway queries still count against
	// MaxInflight.
	result := make(chan []byte, 1)
	go func() {
		defer func() { <-s.gate; s.inflight.Add(-1) }()
		result <- s.execQuery(req)
	}()
	select {
	case payload := <-result:
		if len(payload) > s.cfg.MaxFrame {
			return s.errReply(req.ID, ErrCodeInternal,
				fmt.Sprintf("response of %d bytes exceeds max frame %d", len(payload), s.cfg.MaxFrame))
		}
		return payload
	case <-deadline.C:
		return s.errReply(req.ID, ErrCodeDeadline,
			fmt.Sprintf("query did not finish within %v", s.cfg.RequestTimeout))
	}
}

// handleIngest funnels a batch into the writer goroutine and waits for
// the group commit. Backpressure is the bounded queue: when it stays full
// past the deadline the batch is refused, not applied late and silently.
func (s *Server) handleIngest(req *Request, deadline *time.Timer, sp trace.SpanHandle) []byte {
	if s.cfg.Repl != nil && s.cfg.Repl.ReadOnly() {
		return s.errReply(req.ID, ErrCodeReadOnly, "follower is read-only; ingest at the primary")
	}
	if len(req.Batch) == 0 {
		return EncodeResponse(OpActivateBatch, &Response{ID: req.ID})
	}
	ir := ingestReq{batch: req.Batch, done: make(chan error, 1)}
	if s.cfg.Obs != nil || sp.Active() {
		ir.enq = time.Now()
		ir.qspan = sp.StartChild("queue.wait")
		ir.span = sp
	}
	select {
	case s.ingestCh <- ir:
		s.queued.Add(1)
	case <-deadline.C:
		ir.qspan.End()
		return s.errReply(req.ID, ErrCodeOverloaded,
			fmt.Sprintf("ingest queue full for %v", s.cfg.RequestTimeout))
	}
	select {
	case err := <-ir.done:
		if err != nil {
			var we *WireError
			if errors.As(err, &we) {
				return s.errReply(req.ID, we.Code, we.Msg)
			}
			return s.errReply(req.ID, ErrCodeRejected, err.Error())
		}
		return EncodeResponse(OpActivateBatch, &Response{ID: req.ID, Accepted: uint32(len(req.Batch))})
	case <-deadline.C:
		// The batch is queued and WILL be committed by the writer; only
		// the acknowledgement is late. Report the deadline so the client
		// can treat the batch as in-doubt (at-least-once).
		return s.errReply(req.ID, ErrCodeDeadline,
			fmt.Sprintf("commit not acknowledged within %v", s.cfg.RequestTimeout))
	}
}

// execQuery dispatches a non-ingest request against the backend.
func (s *Server) execQuery(req *Request) []byte {
	resp := &Response{ID: req.ID}
	switch req.Op {
	case OpClusters:
		resp.Clusters = s.backend.Clusters(int(req.Level))
	case OpEvenClusters:
		resp.Clusters = s.backend.EvenClusters(int(req.Level))
	case OpClusterOf:
		resp.Members = s.backend.ClusterOf(int(req.Node), int(req.Level))
	case OpSmallestClusterOf:
		resp.Members = s.backend.SmallestClusterOf(int(req.Node))
	case OpEstimateDistance:
		resp.Value = s.backend.EstimateDistance(int(req.U), int(req.V))
	case OpEstimateAttraction:
		resp.Value = s.backend.EstimateAttraction(int(req.U), int(req.V))
	case OpStats:
		bs := s.backend.Stats()
		resp.Stats = StatsReply{
			Nodes:       uint32(bs.Nodes),
			Edges:       uint32(bs.Edges),
			Levels:      uint32(bs.Levels),
			SqrtLevel:   uint32(bs.SqrtLevel),
			Activations: bs.Activations,
			Now:         bs.Now,
			Inflight:    uint32(s.inflight.Load()),
			Queued:      uint32(s.queued.Load()),
			Draining:    s.draining.Load(),
		}
		if s.cfg.Repl != nil {
			rs := s.cfg.Repl.Status()
			resp.Stats.Role = rs.Role
			resp.Stats.ReplLagFrames = rs.LagFrames()
			resp.Stats.ReplLagSeconds = rs.LagSeconds
		}
	case OpTieRank:
		if req.K <= 0 {
			return s.errReply(req.ID, ErrCodeBadRequest, fmt.Sprintf("tierank k %d, want positive", req.K))
		}
		resp.Rank = s.backend.TieRank(int(req.Level), int(req.K))
	case OpEvolution:
		resp.Evo, resp.Seq, resp.Dropped = s.backend.Evolution(req.From)
	case OpEvents:
		resp.Events, resp.Seq, resp.Dropped = s.backend.Events(req.From, req.Nodes)
	case OpTraces:
		if s.cfg.Tracer == nil {
			return s.errReply(req.ID, ErrCodeBadRequest, "tracing not enabled")
		}
		resp.Raw = s.cfg.Tracer.Render(req.From, req.K != 0)
	case OpReplStatus:
		if s.cfg.Repl == nil {
			return s.errReply(req.ID, ErrCodeBadRequest, "replication not enabled")
		}
		resp.Repl = s.cfg.Repl.Status()
	case OpPromote:
		if s.cfg.Repl == nil {
			return s.errReply(req.ID, ErrCodeBadRequest, "replication not enabled")
		}
		if err := s.cfg.Repl.Promote(); err != nil {
			return s.errReply(req.ID, ErrCodeRejected, err.Error())
		}
	default:
		return s.errReply(req.ID, ErrCodeBadRequest, fmt.Sprintf("unknown op %d", req.Op))
	}
	s.labels.toLabels(resp)
	return EncodeResponse(req.Op, resp)
}
