// Package serve is the network serving layer: a TCP server speaking a
// versioned, length-prefixed, CRC-framed binary protocol over a
// concurrency facade (ConcurrentNetwork or DurableNetwork), so clustering
// queries are answered at any time over an unbounded activation stream
// arriving from many connections — the paper's online scenario pushed out
// of process.
//
// # Wire format
//
// A connection opens with an 8-byte preamble from each side (magic "ANCS",
// a little-endian uint16 protocol version, two reserved zero bytes); the
// server closes the connection on a magic or version mismatch. After the
// preamble the connection carries frames, each framed exactly like a WAL
// record:
//
//	offset  size  field
//	0       4     length  — payload byte count (1 .. MaxFrame), little-endian
//	4       4     crc     — CRC32C (Castagnoli) of the payload
//	8       len   payload
//
// A request payload is op(1) | id(8) | body; a response payload is
// status(1) | id(8) | body, where status is statusOK or statusErr and id
// echoes the request. Error bodies are code(1) | len(2) | message — a
// typed, structured reply, so protocol violations and overload produce a
// diagnosable frame instead of a silent disconnect (the connection is then
// closed only when framing itself is no longer trustworthy).
//
// Requests on one connection are handled in order and answered in order;
// concurrency comes from many connections: queries run under the
// backend's shared lock while all ingest funnels through the server's
// single writer goroutine.
//
// Node IDs on the wire are the dense IDs 0..n-1 of the served network,
// unless the server was given the graph file's label table (Config.Labels,
// as ancserve does): it then speaks the file's original IDs, translating
// at the codec boundary (labels.go).
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"anc"
	"anc/internal/obs/trace"
)

// Protocol identity.
const (
	// Magic opens every connection preamble.
	Magic = "ANCS"
	// Version is the one protocol version this package speaks: both
	// sides of the handshake offer it and a peer offering less is
	// refused. It covers the replication ops, the optional 16-byte
	// trace-context trailer on request frames, per-frame trace IDs on
	// the replication stream, and OpTraces.
	Version uint16 = 3
	// preambleSize is magic(4) + version(2) + reserved(2).
	preambleSize = 8
)

// traceFlag is the request op byte's trace bit: set when the payload
// carries a 16-byte trace-context trailer after the body. Op values stay
// well below it.
const traceFlag uint8 = 0x80

// DefaultMaxFrame bounds a single frame's payload; larger announced
// lengths are rejected as ErrCodeFrameTooBig before any allocation.
const DefaultMaxFrame = 4 << 20

// frameHeaderSize is length(4) + crc(4).
const frameHeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Request operations.
const (
	OpActivateBatch uint8 = iota + 1
	OpClusters
	OpEvenClusters
	OpClusterOf
	OpSmallestClusterOf
	OpEstimateDistance
	OpEstimateAttraction
	OpStats
	OpWatch
	OpUnwatch
	OpDrainEvents
	OpViewOpen
	OpViewZoomIn
	OpViewZoomOut
	OpViewClusters
	OpViewClusterOf
	OpViewClose
	// OpReplSubscribe turns the connection into a replication stream: the
	// request carries the follower's next frame index, the OK response is
	// followed by an unbounded sequence of push frames (OpReplFrames /
	// OpReplStatus / OpReplSnapshot payloads) until either side closes.
	OpReplSubscribe //anclint:ignore wirecomplete repl.Node is the only subscriber; the query client never opens a stream
	// OpReplFrames and OpReplSnapshot are push-only: they appear as the
	// leading byte of server→follower stream payloads and are rejected as
	// request ops.
	OpReplFrames //anclint:ignore wirecomplete push-only stream payload; followers decode it via repl.Node, not the client
	// OpReplStatus as a request returns the peer's replication status; as a
	// push payload it is the stream's heartbeat.
	OpReplStatus
	// OpPromote seals a follower's replication session and re-enables local
	// ingest — the failover switch.
	OpPromote
	OpReplSnapshot //anclint:ignore wirecomplete push-only stream payload; followers decode it via repl.Node, not the client
	// OpTieRank answers an eigenvector-centrality query: top-K nodes
	// globally and, for Level >= 0, per cluster at that level. Read-only,
	// so followers serve it.
	OpTieRank
	// OpEvolution reads the buffered cluster-evolution events after the
	// cursor in From. Non-draining and idempotent (safe to retry), and
	// read-only, so followers serve it.
	OpEvolution
	// OpTraces reads the server's trace flight recorder: From selects a
	// single trace ID (0 for all recent traces), K selects the rendering
	// (0 text tree, nonzero JSON). The reply body is the rendered bytes.
	OpTraces
	opMax // one past the last valid op
)

// Response status bytes.
const (
	statusOK  uint8 = 1
	statusErr uint8 = 0xFF
)

// Typed error codes carried by error replies.
const (
	// ErrCodeBadRequest: the body did not decode, the op is unknown, or a
	// referenced view does not exist. The connection stays usable.
	ErrCodeBadRequest uint8 = iota + 1
	// ErrCodeBadFrame: the frame CRC did not match or the header was
	// malformed. Framing is no longer trustworthy, so after the reply the
	// server closes the connection.
	ErrCodeBadFrame
	// ErrCodeFrameTooBig: the announced payload length exceeds the
	// server's MaxFrame. The reply is sent, then the connection closes
	// (the oversized payload cannot be skipped safely).
	ErrCodeFrameTooBig
	// ErrCodeOverloaded: the admission gate or the ingest queue stayed
	// full for the whole request deadline. Back off and retry.
	ErrCodeOverloaded
	// ErrCodeDeadline: the request was admitted but did not finish within
	// the per-request deadline.
	ErrCodeDeadline
	// ErrCodeShuttingDown: the server is draining; no new work is
	// accepted.
	ErrCodeShuttingDown
	// ErrCodeRejected: the network refused the request (e.g. a batch
	// violating the ingest contract). The message carries the detail.
	ErrCodeRejected
	// ErrCodeInternal: the server failed in a way that is not the
	// client's fault (e.g. a response that would not fit a frame).
	ErrCodeInternal
	// ErrCodeReadOnly: the server is a follower; ingest must go to the
	// primary (or wait for this node's promotion).
	ErrCodeReadOnly
)

// OpName maps wire ops to stable short names — the label values of
// anc_serve_requests_total and the vocabulary of slow-request log lines.
func OpName(op uint8) string {
	switch op {
	case OpActivateBatch:
		return "activate-batch"
	case OpClusters:
		return "clusters"
	case OpEvenClusters:
		return "even-clusters"
	case OpClusterOf:
		return "cluster-of"
	case OpSmallestClusterOf:
		return "smallest-cluster-of"
	case OpEstimateDistance:
		return "estimate-distance"
	case OpEstimateAttraction:
		return "estimate-attraction"
	case OpStats:
		return "stats"
	case OpWatch:
		return "watch"
	case OpUnwatch:
		return "unwatch"
	case OpDrainEvents:
		return "drain-events"
	case OpViewOpen:
		return "view-open"
	case OpViewZoomIn:
		return "view-zoom-in"
	case OpViewZoomOut:
		return "view-zoom-out"
	case OpViewClusters:
		return "view-clusters"
	case OpViewClusterOf:
		return "view-cluster-of"
	case OpViewClose:
		return "view-close"
	case OpReplSubscribe:
		return "repl-subscribe"
	case OpReplFrames:
		return "repl-frames"
	case OpReplStatus:
		return "repl-status"
	case OpPromote:
		return "promote"
	case OpReplSnapshot:
		return "repl-snapshot"
	case OpTieRank:
		return "tierank"
	case OpEvolution:
		return "evolution"
	case OpTraces:
		return "traces"
	}
	return fmt.Sprintf("op-%d", op)
}

// errCodeName maps codes to stable short names for error text.
func errCodeName(code uint8) string {
	switch code {
	case ErrCodeBadRequest:
		return "bad-request"
	case ErrCodeBadFrame:
		return "bad-frame"
	case ErrCodeFrameTooBig:
		return "frame-too-big"
	case ErrCodeOverloaded:
		return "overloaded"
	case ErrCodeDeadline:
		return "deadline"
	case ErrCodeShuttingDown:
		return "shutting-down"
	case ErrCodeRejected:
		return "rejected"
	case ErrCodeInternal:
		return "internal"
	case ErrCodeReadOnly:
		return "read-only"
	}
	return fmt.Sprintf("code-%d", code)
}

// WireError is a typed error reply from the server, preserved by the
// client library so callers can switch on Code.
type WireError struct {
	Code uint8
	Msg  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("serve: %s: %s", errCodeName(e.Code), e.Msg)
}

// Request is the decoded form of one client→server frame. Only the fields
// of the request's Op are meaningful.
type Request struct {
	Op uint8
	ID uint64

	Batch []anc.Activation // OpActivateBatch
	Level int32            // OpClusters, OpEvenClusters, OpClusterOf, OpTieRank (-1: global only)
	Node  uint32           // OpClusterOf, OpSmallestClusterOf, OpWatch, OpUnwatch, OpViewClusterOf
	U, V  uint32           // OpEstimateDistance, OpEstimateAttraction
	View  uint32           // OpView*
	From  uint64           // OpReplSubscribe: next frame index; OpEvolution: event cursor; OpTraces: trace ID (0 = all)
	K     int32            // OpTieRank: the top-k size (must be positive); OpTraces: 0 text, nonzero JSON

	// Trace is the request's propagated trace context, carried on the wire
	// as an optional 16-byte trailer signalled by the op byte's traceFlag
	// bit. A zero context means the request is untraced.
	Trace trace.Context
}

// StatsReply is the body of an OpStats response: the backend's Stats plus
// the server's own load gauges.
type StatsReply struct {
	Nodes, Edges      uint32
	Levels, SqrtLevel uint32
	Activations       uint64
	Now               float64
	// Inflight is the number of requests currently holding an admission
	// slot; Queued is the number of batches waiting in the ingest queue.
	Inflight, Queued uint32
	// Draining reports whether the server has begun its shutdown drain.
	Draining bool
	// Role is the node's replication role (RoleNone when replication is
	// not configured); the lag fields are meaningful only for RoleFollower.
	Role uint8
	// ReplLagFrames is how many committed primary frames the follower has
	// not yet applied; ReplLagSeconds the wall-clock age of its last
	// replication message.
	ReplLagFrames  uint64
	ReplLagSeconds float64
}

// Response is the decoded form of one server→client frame. Err is non-nil
// for error replies; otherwise the fields of the request's op are set.
type Response struct {
	ID  uint64
	Err *WireError

	Clusters [][]int              // cluster-list replies
	Members  []int                // single-cluster replies
	Value    float64              // distance / attraction
	Stats    StatsReply           // OpStats
	Events   []anc.ClusterEvent   // OpDrainEvents
	Dropped  uint64               // OpDrainEvents
	View     uint32               // OpViewOpen
	Level    int32                // view replies
	Moved    bool                 // OpViewZoomIn / OpViewZoomOut
	Accepted uint32               // OpActivateBatch
	Repl     ReplStatus           // OpReplStatus
	Rank     anc.TieRankResult    // OpTieRank
	Evo      []anc.EvolutionEvent // OpEvolution
	Seq      uint64               // OpEvolution: newest event sequence number
	Raw      []byte               // OpTraces: rendered trace bytes (text or JSON)
	// Dropped doubles as OpEvolution's cumulative ring-overwrite count.
}

// ---- frame I/O ----------------------------------------------------------

// frameError marks protocol-level framing failures so the connection loop
// can send the matching typed reply before closing.
type frameError struct {
	code uint8
	msg  string
}

func (e *frameError) Error() string { return fmt.Sprintf("%s: %s", errCodeName(e.code), e.msg) }

// putFrameHeader packs a frame's length and CRC into hdr. It is the pure
// kernel of writeFrame, split out so the per-frame arithmetic can be
// held to the zero-allocation contract (the enclosing writeFrame cannot:
// passing hdr[:] to an io.Writer makes the buffer escape).
//
//anclint:hotpath
func putFrameHeader(hdr *[frameHeaderSize]byte, length, crc uint32) {
	binary.LittleEndian.PutUint32(hdr[0:4], length)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
}

// parseFrameHeader is putFrameHeader's inverse: the pure kernel of
// readFrame.
//
//anclint:hotpath
func parseFrameHeader(hdr *[frameHeaderSize]byte) (length, crc uint32) {
	return binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
}

// readFrame reads one length+CRC frame, enforcing maxFrame. It returns a
// *frameError for malformed or oversized frames and plain I/O errors
// (including io.EOF on clean close) otherwise.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length, crc := parseFrameHeader(&hdr)
	if length == 0 {
		return nil, &frameError{code: ErrCodeBadFrame, msg: "zero-length frame"}
	}
	if int64(length) > int64(maxFrame) {
		return nil, &frameError{code: ErrCodeFrameTooBig,
			msg: fmt.Sprintf("frame of %d bytes exceeds max %d", length, maxFrame)}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, &frameError{code: ErrCodeBadFrame, msg: "frame crc mismatch"}
	}
	return payload, nil
}

// writeFrame frames payload with its length and CRC32C.
func writeFrame(w *bufio.Writer, payload []byte) error {
	var hdr [frameHeaderSize]byte
	putFrameHeader(&hdr, uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// WritePreamble writes this side's 8-byte handshake — magic, Version,
// two reserved bytes. The client speaks first; the server answers with
// the same bytes.
func WritePreamble(w io.Writer) error {
	var b [preambleSize]byte
	copy(b[0:4], Magic)
	binary.LittleEndian.PutUint16(b[4:6], Version)
	_, err := w.Write(b[:])
	return err
}

// ReadPreamble reads and validates the peer's handshake: the magic must
// match and the announced version must be at least Version. A newer
// peer is accepted — it offered high and is answered with Version, our
// ceiling, which is what both sides then speak.
func ReadPreamble(r io.Reader) error {
	var b [preambleSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if string(b[0:4]) != Magic {
		return fmt.Errorf("serve: bad magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v < Version {
		return fmt.Errorf("serve: protocol version %d, want %d", v, Version)
	}
	return nil
}

// WriteRequest frames and flushes one encoded request.
func WriteRequest(w *bufio.Writer, req *Request) error {
	return writeFrame(w, EncodeRequest(req))
}

// ReadResponse reads one frame and decodes it as the response to a request
// of the given op, enforcing maxFrame.
func ReadResponse(r io.Reader, op uint8, maxFrame int) (*Response, error) {
	payload, err := readFrame(r, maxFrame)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(op, payload)
}

// ---- request encode/decode ----------------------------------------------

// activationWireSize is u(4) + v(4) + t(8), matching the WAL record.
const activationWireSize = 16

// EncodeRequest serializes a request payload (without the frame header).
func EncodeRequest(req *Request) []byte {
	b := make([]byte, 0, 9+bodySizeHint(req))
	b = append(b, req.Op)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	switch req.Op {
	case OpActivateBatch:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Batch)))
		for _, a := range req.Batch {
			b = binary.LittleEndian.AppendUint32(b, uint32(a.U))
			b = binary.LittleEndian.AppendUint32(b, uint32(a.V))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.T))
		}
	case OpClusters, OpEvenClusters:
		b = binary.LittleEndian.AppendUint32(b, uint32(req.Level))
	case OpClusterOf:
		b = binary.LittleEndian.AppendUint32(b, req.Node)
		b = binary.LittleEndian.AppendUint32(b, uint32(req.Level))
	case OpSmallestClusterOf, OpWatch, OpUnwatch:
		b = binary.LittleEndian.AppendUint32(b, req.Node)
	case OpEstimateDistance, OpEstimateAttraction:
		b = binary.LittleEndian.AppendUint32(b, req.U)
		b = binary.LittleEndian.AppendUint32(b, req.V)
	case OpStats, OpDrainEvents, OpViewOpen:
		// no body
	case OpViewZoomIn, OpViewZoomOut, OpViewClusters, OpViewClose:
		b = binary.LittleEndian.AppendUint32(b, req.View)
	case OpViewClusterOf:
		b = binary.LittleEndian.AppendUint32(b, req.View)
		b = binary.LittleEndian.AppendUint32(b, req.Node)
	case OpReplSubscribe:
		b = binary.LittleEndian.AppendUint64(b, req.From)
	case OpReplStatus, OpPromote:
		// no body
	case OpTieRank:
		b = binary.LittleEndian.AppendUint32(b, uint32(req.Level))
		b = binary.LittleEndian.AppendUint32(b, uint32(req.K))
	case OpEvolution:
		b = binary.LittleEndian.AppendUint64(b, req.From)
	case OpTraces:
		b = binary.LittleEndian.AppendUint64(b, req.From)
		b = binary.LittleEndian.AppendUint32(b, uint32(req.K))
	}
	if req.Trace.Valid() {
		b[0] |= traceFlag
		b = trace.AppendContext(b, req.Trace)
	}
	return b
}

func bodySizeHint(req *Request) int {
	if req.Op == OpActivateBatch {
		return 4 + len(req.Batch)*activationWireSize
	}
	return 16
}

// DecodeRequest parses a request payload. It is strict: trailing bytes,
// short bodies and unknown ops are errors, so a fuzz-found decode always
// round-trips byte-identically through EncodeRequest.
func DecodeRequest(payload []byte) (*Request, error) {
	if len(payload) < 9 {
		return nil, fmt.Errorf("request payload of %d bytes", len(payload))
	}
	req := &Request{Op: payload[0] &^ traceFlag, ID: binary.LittleEndian.Uint64(payload[1:9])}
	body := payload[9:]
	if payload[0]&traceFlag != 0 {
		if len(body) < trace.ContextWireSize {
			return nil, fmt.Errorf("op %d: trace trailer truncated (%d bytes)", req.Op, len(body))
		}
		req.Trace = trace.DecodeContext(body[len(body)-trace.ContextWireSize:])
		if !req.Trace.Valid() {
			// A zero trace ID under the flag would not re-encode with the
			// flag set, breaking decode∘encode byte identity.
			return nil, fmt.Errorf("op %d: zero trace ID in trailer", req.Op)
		}
		body = body[:len(body)-trace.ContextWireSize]
	}
	if req.Op == 0 || req.Op >= opMax {
		return nil, fmt.Errorf("unknown op %d", req.Op)
	}
	need := func(n int) error {
		if len(body) != n {
			return fmt.Errorf("op %d: body of %d bytes, want %d", req.Op, len(body), n)
		}
		return nil
	}
	switch req.Op {
	case OpActivateBatch:
		if len(body) < 4 {
			return nil, fmt.Errorf("batch body of %d bytes", len(body))
		}
		count := binary.LittleEndian.Uint32(body[0:4])
		if uint64(len(body)) != 4+uint64(count)*activationWireSize {
			return nil, fmt.Errorf("batch of %d records in %d bytes", count, len(body))
		}
		req.Batch = make([]anc.Activation, count)
		for i := range req.Batch {
			rec := body[4+i*activationWireSize:]
			req.Batch[i] = anc.Activation{
				U: int(binary.LittleEndian.Uint32(rec[0:4])),
				V: int(binary.LittleEndian.Uint32(rec[4:8])),
				T: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			}
		}
	case OpClusters, OpEvenClusters:
		if err := need(4); err != nil {
			return nil, err
		}
		req.Level = int32(binary.LittleEndian.Uint32(body[0:4]))
	case OpClusterOf:
		if err := need(8); err != nil {
			return nil, err
		}
		req.Node = binary.LittleEndian.Uint32(body[0:4])
		req.Level = int32(binary.LittleEndian.Uint32(body[4:8]))
	case OpSmallestClusterOf, OpWatch, OpUnwatch:
		if err := need(4); err != nil {
			return nil, err
		}
		req.Node = binary.LittleEndian.Uint32(body[0:4])
	case OpEstimateDistance, OpEstimateAttraction:
		if err := need(8); err != nil {
			return nil, err
		}
		req.U = binary.LittleEndian.Uint32(body[0:4])
		req.V = binary.LittleEndian.Uint32(body[4:8])
	case OpStats, OpDrainEvents, OpViewOpen:
		if err := need(0); err != nil {
			return nil, err
		}
	case OpViewZoomIn, OpViewZoomOut, OpViewClusters, OpViewClose:
		if err := need(4); err != nil {
			return nil, err
		}
		req.View = binary.LittleEndian.Uint32(body[0:4])
	case OpViewClusterOf:
		if err := need(8); err != nil {
			return nil, err
		}
		req.View = binary.LittleEndian.Uint32(body[0:4])
		req.Node = binary.LittleEndian.Uint32(body[4:8])
	case OpReplSubscribe:
		if err := need(8); err != nil {
			return nil, err
		}
		req.From = binary.LittleEndian.Uint64(body[0:8])
	case OpReplStatus, OpPromote:
		if err := need(0); err != nil {
			return nil, err
		}
	case OpReplFrames, OpReplSnapshot:
		// Push-only payloads on a replication stream — never a request.
		return nil, fmt.Errorf("push-only op %d", req.Op)
	case OpTieRank:
		if err := need(8); err != nil {
			return nil, err
		}
		req.Level = int32(binary.LittleEndian.Uint32(body[0:4]))
		req.K = int32(binary.LittleEndian.Uint32(body[4:8]))
	case OpEvolution:
		if err := need(8); err != nil {
			return nil, err
		}
		req.From = binary.LittleEndian.Uint64(body[0:8])
	case OpTraces:
		if err := need(12); err != nil {
			return nil, err
		}
		req.From = binary.LittleEndian.Uint64(body[0:8])
		req.K = int32(binary.LittleEndian.Uint32(body[8:12]))
	}
	return req, nil
}

// ---- response encode/decode ---------------------------------------------

// EncodeError serializes a typed error reply for the given request id.
func EncodeError(id uint64, code uint8, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	b := make([]byte, 0, 12+len(msg))
	b = append(b, statusErr)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, code)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	b = append(b, msg...)
	return b
}

// EncodeResponse serializes an OK response for the given op.
func EncodeResponse(op uint8, resp *Response) []byte {
	b := make([]byte, 0, 64)
	b = append(b, statusOK)
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	switch op {
	case OpActivateBatch:
		b = binary.LittleEndian.AppendUint32(b, resp.Accepted)
	case OpClusters, OpEvenClusters, OpViewClusters:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Clusters)))
		for _, c := range resp.Clusters {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(c)))
			for _, v := range c {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
		}
	case OpClusterOf, OpSmallestClusterOf, OpViewClusterOf:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Members)))
		for _, v := range resp.Members {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	case OpEstimateDistance, OpEstimateAttraction:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(resp.Value))
	case OpStats:
		s := resp.Stats
		b = binary.LittleEndian.AppendUint32(b, s.Nodes)
		b = binary.LittleEndian.AppendUint32(b, s.Edges)
		b = binary.LittleEndian.AppendUint32(b, s.Levels)
		b = binary.LittleEndian.AppendUint32(b, s.SqrtLevel)
		b = binary.LittleEndian.AppendUint64(b, s.Activations)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Now))
		b = binary.LittleEndian.AppendUint32(b, s.Inflight)
		b = binary.LittleEndian.AppendUint32(b, s.Queued)
		if s.Draining {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = append(b, s.Role)
		b = binary.LittleEndian.AppendUint64(b, s.ReplLagFrames)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.ReplLagSeconds))
	case OpWatch, OpUnwatch, OpViewClose, OpPromote:
		// no body
	case OpReplSubscribe:
		// no body: the OK reply just acknowledges the subscription; the
		// stream that follows carries the data.
	case OpReplStatus:
		b = appendReplStatus(b, &resp.Repl)
	case OpDrainEvents:
		b = binary.LittleEndian.AppendUint64(b, resp.Dropped)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Events)))
		for _, e := range resp.Events {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Node))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Other))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Level))
			if e.Joined {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Time))
		}
	case OpViewOpen:
		b = binary.LittleEndian.AppendUint32(b, resp.View)
		b = binary.LittleEndian.AppendUint32(b, uint32(resp.Level))
	case OpViewZoomIn, OpViewZoomOut:
		if resp.Moved {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(resp.Level))
	case OpTieRank:
		r := &resp.Rank
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Level))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Iters))
		if r.Converged {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Now))
		b = appendRankEntries(b, r.Global)
		// A global-only answer (Level -1) carries zero groups; decoding
		// enforces that, so the encoding stays canonical.
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Clusters)))
		for _, g := range r.Clusters {
			b = appendRankEntries(b, g)
		}
	case OpEvolution:
		b = binary.LittleEndian.AppendUint64(b, resp.Seq)
		b = binary.LittleEndian.AppendUint64(b, resp.Dropped)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Evo)))
		for _, e := range resp.Evo {
			b = binary.LittleEndian.AppendUint64(b, e.Seq)
			b = append(b, uint8(e.Type))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Level))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Node))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Size))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.PrevSize))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Time))
		}
	case OpTraces:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Raw)))
		b = append(b, resp.Raw...)
	}
	return b
}

// appendRankEntries serializes one top-k listing: count(4) then
// node(4) + score(8) per entry.
func appendRankEntries(b []byte, entries []anc.RankEntry) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Node))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Score))
	}
	return b
}

// DecodeResponse parses a response payload for a request of the given op.
// Error replies decode for any op.
func DecodeResponse(op uint8, payload []byte) (*Response, error) {
	if len(payload) < 9 {
		return nil, fmt.Errorf("response payload of %d bytes", len(payload))
	}
	status := payload[0]
	resp := &Response{ID: binary.LittleEndian.Uint64(payload[1:9])}
	body := payload[9:]
	if status == statusErr {
		if len(body) < 3 {
			return nil, fmt.Errorf("error body of %d bytes", len(body))
		}
		code := body[0]
		n := int(binary.LittleEndian.Uint16(body[1:3]))
		if len(body) != 3+n {
			return nil, fmt.Errorf("error message of %d bytes in %d", n, len(body))
		}
		resp.Err = &WireError{Code: code, Msg: string(body[3:])}
		return resp, nil
	}
	if status != statusOK {
		return nil, fmt.Errorf("unknown response status %d", status)
	}
	take := func(n int) ([]byte, error) {
		if len(body) < n {
			return nil, fmt.Errorf("op %d: response truncated", op)
		}
		out := body[:n]
		body = body[n:]
		return out, nil
	}
	switch op {
	case OpActivateBatch:
		b, err := take(4)
		if err != nil {
			return nil, err
		}
		resp.Accepted = binary.LittleEndian.Uint32(b)
	case OpClusters, OpEvenClusters, OpViewClusters:
		b, err := take(4)
		if err != nil {
			return nil, err
		}
		count := int(binary.LittleEndian.Uint32(b))
		// Capacity is grown as clusters decode; trusting the announced
		// count before the bytes back it up would let a short frame force
		// a huge allocation.
		resp.Clusters = make([][]int, 0, min(count, 1024))
		for i := 0; i < count; i++ {
			b, err := take(4)
			if err != nil {
				return nil, err
			}
			sz := int(binary.LittleEndian.Uint32(b))
			ids, err := take(4 * sz)
			if err != nil {
				return nil, err
			}
			c := make([]int, sz)
			for j := range c {
				c[j] = int(binary.LittleEndian.Uint32(ids[4*j:]))
			}
			resp.Clusters = append(resp.Clusters, c)
		}
	case OpClusterOf, OpSmallestClusterOf, OpViewClusterOf:
		b, err := take(4)
		if err != nil {
			return nil, err
		}
		sz := int(binary.LittleEndian.Uint32(b))
		ids, err := take(4 * sz)
		if err != nil {
			return nil, err
		}
		resp.Members = make([]int, sz)
		for j := range resp.Members {
			resp.Members[j] = int(binary.LittleEndian.Uint32(ids[4*j:]))
		}
	case OpEstimateDistance, OpEstimateAttraction:
		b, err := take(8)
		if err != nil {
			return nil, err
		}
		resp.Value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	case OpStats:
		b, err := take(36)
		if err != nil {
			return nil, err
		}
		resp.Stats = StatsReply{
			Nodes:       binary.LittleEndian.Uint32(b[0:4]),
			Edges:       binary.LittleEndian.Uint32(b[4:8]),
			Levels:      binary.LittleEndian.Uint32(b[8:12]),
			SqrtLevel:   binary.LittleEndian.Uint32(b[12:16]),
			Activations: binary.LittleEndian.Uint64(b[16:24]),
			Now:         math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
			Inflight:    binary.LittleEndian.Uint32(b[32:36]),
		}
		b2, err := take(5)
		if err != nil {
			return nil, err
		}
		resp.Stats.Queued = binary.LittleEndian.Uint32(b2[0:4])
		resp.Stats.Draining = b2[4] != 0
		b3, err := take(17)
		if err != nil {
			return nil, err
		}
		resp.Stats.Role = b3[0]
		resp.Stats.ReplLagFrames = binary.LittleEndian.Uint64(b3[1:9])
		resp.Stats.ReplLagSeconds = math.Float64frombits(binary.LittleEndian.Uint64(b3[9:17]))
	case OpWatch, OpUnwatch, OpViewClose, OpPromote, OpReplSubscribe:
		// no body
	case OpReplStatus:
		st, rest, err := decodeReplStatus(body)
		if err != nil {
			return nil, err
		}
		resp.Repl = *st
		body = rest
	case OpDrainEvents:
		b, err := take(12)
		if err != nil {
			return nil, err
		}
		resp.Dropped = binary.LittleEndian.Uint64(b[0:8])
		count := int(binary.LittleEndian.Uint32(b[8:12]))
		resp.Events = make([]anc.ClusterEvent, 0, min(count, 1024))
		for i := 0; i < count; i++ {
			e, err := take(21)
			if err != nil {
				return nil, err
			}
			resp.Events = append(resp.Events, anc.ClusterEvent{
				Node:   int(binary.LittleEndian.Uint32(e[0:4])),
				Other:  int(binary.LittleEndian.Uint32(e[4:8])),
				Level:  int(binary.LittleEndian.Uint32(e[8:12])),
				Joined: e[12] != 0,
				Time:   math.Float64frombits(binary.LittleEndian.Uint64(e[13:21])),
			})
		}
	case OpViewOpen:
		b, err := take(8)
		if err != nil {
			return nil, err
		}
		resp.View = binary.LittleEndian.Uint32(b[0:4])
		resp.Level = int32(binary.LittleEndian.Uint32(b[4:8]))
	case OpViewZoomIn, OpViewZoomOut:
		b, err := take(5)
		if err != nil {
			return nil, err
		}
		resp.Moved = b[0] != 0
		resp.Level = int32(binary.LittleEndian.Uint32(b[1:5]))
	case OpTieRank:
		takeEntries := func() ([]anc.RankEntry, error) {
			b, err := take(4)
			if err != nil {
				return nil, err
			}
			count := int(binary.LittleEndian.Uint32(b))
			// Capacity grows as entries decode — see the Clusters case.
			out := make([]anc.RankEntry, 0, min(count, 1024))
			for i := 0; i < count; i++ {
				e, err := take(12)
				if err != nil {
					return nil, err
				}
				out = append(out, anc.RankEntry{
					Node:  int(binary.LittleEndian.Uint32(e[0:4])),
					Score: math.Float64frombits(binary.LittleEndian.Uint64(e[4:12])),
				})
			}
			return out, nil
		}
		b, err := take(17)
		if err != nil {
			return nil, err
		}
		resp.Rank.Level = int(int32(binary.LittleEndian.Uint32(b[0:4])))
		resp.Rank.Iters = int(binary.LittleEndian.Uint32(b[4:8]))
		resp.Rank.Converged = b[8] != 0
		resp.Rank.Now = math.Float64frombits(binary.LittleEndian.Uint64(b[9:17]))
		if resp.Rank.Global, err = takeEntries(); err != nil {
			return nil, err
		}
		g, err := take(4)
		if err != nil {
			return nil, err
		}
		groups := int(binary.LittleEndian.Uint32(g))
		if resp.Rank.Level < 0 && groups != 0 {
			return nil, fmt.Errorf("tierank: %d groups on a global-only answer", groups)
		}
		if groups > 0 {
			resp.Rank.Clusters = make([][]anc.RankEntry, 0, min(groups, 1024))
			for i := 0; i < groups; i++ {
				entries, err := takeEntries()
				if err != nil {
					return nil, err
				}
				resp.Rank.Clusters = append(resp.Rank.Clusters, entries)
			}
		}
	case OpEvolution:
		b, err := take(20)
		if err != nil {
			return nil, err
		}
		resp.Seq = binary.LittleEndian.Uint64(b[0:8])
		resp.Dropped = binary.LittleEndian.Uint64(b[8:16])
		count := int(binary.LittleEndian.Uint32(b[16:20]))
		resp.Evo = make([]anc.EvolutionEvent, 0, min(count, 1024))
		for i := 0; i < count; i++ {
			e, err := take(33)
			if err != nil {
				return nil, err
			}
			resp.Evo = append(resp.Evo, anc.EvolutionEvent{
				Seq:      binary.LittleEndian.Uint64(e[0:8]),
				Type:     anc.EvolutionEventType(e[8]),
				Level:    int(binary.LittleEndian.Uint32(e[9:13])),
				Node:     int(binary.LittleEndian.Uint32(e[13:17])),
				Size:     int(binary.LittleEndian.Uint32(e[17:21])),
				PrevSize: int(binary.LittleEndian.Uint32(e[21:25])),
				Time:     math.Float64frombits(binary.LittleEndian.Uint64(e[25:33])),
			})
		}
	case OpTraces:
		b, err := take(4)
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(b))
		raw, err := take(n)
		if err != nil {
			return nil, err
		}
		resp.Raw = append([]byte(nil), raw...)
	default:
		return nil, fmt.Errorf("unknown op %d", op)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("op %d: %d trailing response bytes", op, len(body))
	}
	return resp, nil
}
