package serve

import "anc/internal/obs"

// serverMetrics are the serving layer's observability handles, registered
// under the anc_serve_* families (see DESIGN.md §12). Without Config.Obs
// every handle is nil, and obs handles are nil-safe, so the request loop
// calls them unconditionally and pays one predictable branch per site when
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
// nil handles, observability off). The server's live admission and queue
// gauges are sampled at scrape time straight from its atomics.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
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
	// Reserved numbers have no row, no series and a nil handle.
	for op, row := range opTable {
		if row.name != "" {
			m.requests[op] = requests.With(row.name)
		}
	}
	reg.GaugeFunc("anc_serve_inflight",
		"requests currently holding an admission slot",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("anc_serve_ingest_queue_depth",
		"batches waiting in the ingest queue",
		func() float64 { return float64(s.queued.Load()) })
	return m
}
