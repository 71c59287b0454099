package serve

import "anc/internal/obs"

// serverMetrics are the serving layer's observability handles, registered
// under the anc_serve_* families (see DESIGN.md §12). A nil *serverMetrics
// (the default — no Config.Obs) disables them; every method is nil-safe,
// so the request loop pays one predictable branch per site when
// observability is off.
type serverMetrics struct {
	// requests is indexed by wire op: the per-op children of
	// anc_serve_requests_total, resolved once at registration so the hot
	// path never touches the family's label map.
	requests [opMax]*obs.Counter
	// errors splits anc_serve_errors_total by wire error code name; error
	// replies are rare enough that the label lookup per event is fine.
	errors *obs.CounterVec
	// ingestSeconds and querySeconds observe whole-request handling time
	// (admission wait included) for OpActivateBatch and everything else.
	ingestSeconds *obs.Histogram
	querySeconds  *obs.Histogram
	// queueWaitSeconds and replySeconds are the serve-side stages of the
	// per-request breakdown: time a batch sat in the ingest queue before
	// the writer picked it up, and time spent writing the response frame.
	// Together with the durable/WAL/pyramid histograms they give the
	// queue-wait / wal / fsync / repair / reply decomposition of an
	// ingest call on /metrics.
	queueWaitSeconds *obs.Histogram
	replySeconds     *obs.Histogram
	// bytesRead / bytesWritten count frame bytes (header + payload) after
	// the handshake.
	bytesRead    *obs.Counter
	bytesWritten *obs.Counter
	// connections is the number of currently open client connections.
	connections *obs.Gauge
	// slowRequests counts requests over Config.SlowQuery — every one, even
	// when the matching log line is rate-limited away.
	slowRequests *obs.Counter
}

// newServerMetrics registers the serve metric families on reg (nil reg →
// nil metrics, observability off). The server's live admission and queue
// gauges are sampled at scrape time straight from its atomics.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		errors: reg.CounterVec("anc_serve_errors_total",
			"error replies sent, by wire error code", "code"),
		ingestSeconds: reg.Histogram("anc_serve_ingest_seconds",
			"ActivateBatch handling time in seconds, admission to reply", nil),
		querySeconds: reg.Histogram("anc_serve_query_seconds",
			"query handling time in seconds, admission to reply", nil),
		queueWaitSeconds: reg.Histogram("anc_serve_queue_wait_seconds",
			"time a batch waited in the ingest queue before the writer dequeued it", nil),
		replySeconds: reg.Histogram("anc_serve_reply_seconds",
			"time spent framing and flushing one response to the client", nil),
		bytesRead: reg.Counter("anc_serve_read_bytes_total",
			"frame bytes read from clients (header + payload)"),
		bytesWritten: reg.Counter("anc_serve_written_bytes_total",
			"frame bytes written to clients (header + payload)"),
		connections: reg.Gauge("anc_serve_connections",
			"currently open client connections"),
		slowRequests: reg.Counter("anc_serve_slow_requests_total",
			"requests slower than the configured slow-query threshold"),
	}
	requests := reg.CounterVec("anc_serve_requests_total",
		"requests handled, by wire op", "op")
	// Resolve every op's child now so each series exists (at 0) from the
	// first scrape and the request path is a plain indexed atomic add.
	for op := uint8(1); op < uint8(opMax); op++ {
		m.requests[op] = requests.With(OpName(op))
	}
	reg.GaugeFunc("anc_serve_inflight",
		"requests currently holding an admission slot",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("anc_serve_ingest_queue_depth",
		"batches waiting in the ingest queue",
		func() float64 { return float64(s.queued.Load()) })
	return m
}

//anclint:hotpath
func (m *serverMetrics) request(op uint8) {
	if m == nil {
		return
	}
	if op < uint8(opMax) {
		m.requests[op].Inc()
	}
}

func (m *serverMetrics) errored(code uint8) {
	if m == nil {
		return
	}
	m.errors.With(errCodeName(code)).Inc()
}

//anclint:hotpath
func (m *serverMetrics) observe(op uint8, seconds float64) {
	if m == nil {
		return
	}
	if op == OpActivateBatch {
		m.ingestSeconds.Observe(seconds)
	} else {
		m.querySeconds.Observe(seconds)
	}
}

//anclint:hotpath
func (m *serverMetrics) queueWait(seconds float64) {
	if m == nil {
		return
	}
	m.queueWaitSeconds.Observe(seconds)
}

//anclint:hotpath
func (m *serverMetrics) replyTime(seconds float64) {
	if m == nil {
		return
	}
	m.replySeconds.Observe(seconds)
}

//anclint:hotpath
func (m *serverMetrics) readBytes(n int) {
	if m == nil {
		return
	}
	m.bytesRead.Add(uint64(n))
}

//anclint:hotpath
func (m *serverMetrics) wroteBytes(n int) {
	if m == nil {
		return
	}
	m.bytesWritten.Add(uint64(n))
}

//anclint:hotpath
func (m *serverMetrics) connOpened() {
	if m == nil {
		return
	}
	m.connections.Inc()
}

//anclint:hotpath
func (m *serverMetrics) connClosed() {
	if m == nil {
		return
	}
	m.connections.Dec()
}

//anclint:hotpath
func (m *serverMetrics) slow() {
	if m == nil {
		return
	}
	m.slowRequests.Inc()
}
