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
	// Ops 9–17 are reserved: 9–11 carried the retired server-side watcher
	// (watch, unwatch, drain-events), 12–17 the retired server-side zoom
	// sessions, and no later op's wire value moves. Their opTable rows stay
	// empty, so they decode as unknown ops.
	//
	// OpReplSubscribe turns the connection into a replication stream: the
	// request carries the follower's next frame index, the OK response is
	// followed by an unbounded sequence of push frames (OpReplFrames /
	// OpReplStatus / OpReplSnapshot payloads) until either side closes.
	OpReplSubscribe uint8 = iota + 10
	// OpReplFrames and OpReplSnapshot are push-only: they appear as the
	// leading byte of server→follower stream payloads and are rejected as
	// request ops.
	OpReplFrames
	// OpReplStatus as a request returns the peer's replication status; as a
	// push payload it is the stream's heartbeat.
	OpReplStatus
	// OpPromote seals a follower's replication session and re-enables local
	// ingest — the failover switch.
	OpPromote
	OpReplSnapshot
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
	// OpEvents reads the cluster-change feed: the vote flips after the
	// cursor in From, as events on the node list in Nodes, with the newest
	// sequence number and the flips the cursor missed. Non-draining and
	// read-only, so it is safe to resend and followers serve it.
	OpEvents
	opMax // one past the last valid op
)

// Response status bytes.
const (
	statusOK  uint8 = 1
	statusErr uint8 = 0xFF
)

// Typed error codes carried by error replies.
const (
	// ErrCodeBadRequest: the body did not decode or the op is unknown. The
	// connection stays usable.
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
	errCodeMax // one past the last valid code
)

// field is one request body field; a row of opTable lists its op's
// fields in wire order.
type field uint8

const (
	fLevel field = iota // Request.Level, int32
	fNode               // Request.Node, uint32
	fU                  // Request.U, uint32
	fV                  // Request.V, uint32
	fK                  // Request.K, int32
	fFrom               // Request.From, uint64 — the one 8-byte field
	fNodes              // Request.Nodes: count(4) then that many uint32 node IDs
)

// opRow is everything the wire knows about one op. What the server does
// with a decoded request is behaviour, not a wire fact: that stays in
// Server.execQuery.
type opRow struct {
	// name is the stable short name: the label value of
	// anc_serve_requests_total and the vocabulary of slow-request log lines.
	name string
	// fields is the request body. OpActivateBatch leaves it empty: its body
	// is the counted-record loop in EncodeRequest/DecodeRequest.
	fields []field
	// push marks a server→follower stream payload: never a request, so it
	// has no response codec.
	push bool
	// enc and dec are the OK-response body shape, shared by every op that
	// replies with it.
	enc func(b []byte, resp *Response) []byte
	dec func(c *cursor, resp *Response)
	// resend says an identical resend is safe after a lost reply: the op
	// does not mutate the server.
	resend bool
}

// opTable is the one declaration of every wire op: OpName, the four codec
// functions, the per-op metric labels and the client's retry decision read it.
var opTable = [opMax]opRow{
	OpActivateBatch:      {name: "activate-batch", enc: encAccepted, dec: decAccepted},
	OpClusters:           {name: "clusters", fields: []field{fLevel}, enc: encClusters, dec: decClusters, resend: true},
	OpEvenClusters:       {name: "even-clusters", fields: []field{fLevel}, enc: encClusters, dec: decClusters, resend: true},
	OpClusterOf:          {name: "cluster-of", fields: []field{fNode, fLevel}, enc: encMembers, dec: decMembers, resend: true},
	OpSmallestClusterOf:  {name: "smallest-cluster-of", fields: []field{fNode}, enc: encMembers, dec: decMembers, resend: true},
	OpEstimateDistance:   {name: "estimate-distance", fields: []field{fU, fV}, enc: encValue, dec: decValue, resend: true},
	OpEstimateAttraction: {name: "estimate-attraction", fields: []field{fU, fV}, enc: encValue, dec: decValue, resend: true},
	OpStats:              {name: "stats", enc: encStats, dec: decStats, resend: true},
	OpReplSubscribe:      {name: "repl-subscribe", fields: []field{fFrom}, enc: encEmpty, dec: decEmpty},
	OpReplFrames:         {name: "repl-frames", push: true},
	OpReplStatus:         {name: "repl-status", enc: encReplStatus, dec: decReplStatus, resend: true},
	OpPromote:            {name: "promote", enc: encEmpty, dec: decEmpty},
	OpReplSnapshot:       {name: "repl-snapshot", push: true},
	OpTieRank:            {name: "tierank", fields: []field{fLevel, fK}, enc: encRank, dec: decRank, resend: true},
	OpEvolution:          {name: "evolution", fields: []field{fFrom}, enc: encEvolution, dec: decEvolution, resend: true},
	OpTraces:             {name: "traces", fields: []field{fFrom, fK}, enc: encRaw, dec: decRaw, resend: true},
	OpEvents:             {name: "events", fields: []field{fFrom, fNodes}, enc: encEvents, dec: decEvents, resend: true},
}

// errCodeNames are the stable short names used in error text and as the
// label values of anc_serve_errors_total.
var errCodeNames = [errCodeMax]string{
	ErrCodeBadRequest:   "bad-request",
	ErrCodeBadFrame:     "bad-frame",
	ErrCodeFrameTooBig:  "frame-too-big",
	ErrCodeOverloaded:   "overloaded",
	ErrCodeDeadline:     "deadline",
	ErrCodeShuttingDown: "shutting-down",
	ErrCodeRejected:     "rejected",
	ErrCodeInternal:     "internal",
	ErrCodeReadOnly:     "read-only",
}

// OpName maps wire ops to stable short names.
func OpName(op uint8) string {
	if op < opMax && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op-%d", op)
}

// ResendSafe reports whether a client may send the identical request again
// after a lost reply or an overloaded answer.
func ResendSafe(op uint8) bool { return op < opMax && opTable[op].resend }

// errCodeName maps codes to stable short names for error text.
func errCodeName(code uint8) string {
	if code < errCodeMax && errCodeNames[code] != "" {
		return errCodeNames[code]
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
// in the op's opTable row (Batch for OpActivateBatch) are meaningful.
type Request struct {
	Op uint8
	ID uint64

	Batch []anc.Activation
	Level int32  // granularity level; OpTieRank: -1 is global only
	Node  uint32 // the node asked about
	U, V  uint32 // the pair asked about
	From  uint64 // OpReplSubscribe: next frame index; OpEvolution, OpEvents: event cursor; OpTraces: trace ID (0 = all)
	K     int32  // OpTieRank: the top-k size (must be positive); OpTraces: 0 text, nonzero JSON
	Nodes []int  // OpEvents: the nodes whose events are asked for

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
	Events   []anc.ClusterEvent   // OpEvents
	Dropped  uint64               // OpEvolution: cumulative ring-overwrite count; OpEvents: flips this cursor missed
	Accepted uint32               // OpActivateBatch
	Repl     ReplStatus           // OpReplStatus
	Rank     anc.TieRankResult    // OpTieRank
	Evo      []anc.EvolutionEvent // OpEvolution
	Seq      uint64               // OpEvolution, OpEvents: newest sequence number
	Raw      []byte               // OpTraces: rendered trace bytes (text or JSON)
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

// put appends the field's value from req.
func (f field) put(b []byte, req *Request) []byte {
	switch f {
	case fLevel:
		return binary.LittleEndian.AppendUint32(b, uint32(req.Level))
	case fNode:
		return binary.LittleEndian.AppendUint32(b, req.Node)
	case fU:
		return binary.LittleEndian.AppendUint32(b, req.U)
	case fV:
		return binary.LittleEndian.AppendUint32(b, req.V)
	case fK:
		return binary.LittleEndian.AppendUint32(b, uint32(req.K))
	case fNodes:
		return appendIDs(b, req.Nodes)
	}
	return binary.LittleEndian.AppendUint64(b, req.From)
}

// get reads the field's value from c into req. A counted node list is
// allocated only once its bytes are known to be there (cursor.ids).
func (f field) get(c *cursor, req *Request) {
	switch f {
	case fLevel:
		req.Level = int32(c.u32())
	case fNode:
		req.Node = c.u32()
	case fU:
		req.U = c.u32()
	case fV:
		req.V = c.u32()
	case fK:
		req.K = int32(c.u32())
	case fFrom:
		req.From = c.u64()
	case fNodes:
		req.Nodes = c.ids()
	}
}

// EncodeRequest serializes a request payload (without the frame header).
func EncodeRequest(req *Request) []byte {
	b := make([]byte, 0, 9+16+len(req.Batch)*activationWireSize+4*len(req.Nodes))
	b = append(b, req.Op)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	if req.Op == OpActivateBatch {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Batch)))
		for _, a := range req.Batch {
			b = binary.LittleEndian.AppendUint32(b, uint32(a.U))
			b = binary.LittleEndian.AppendUint32(b, uint32(a.V))
			b = appendFloat(b, a.T)
		}
	} else if req.Op < opMax {
		for _, f := range opTable[req.Op].fields {
			b = f.put(b, req)
		}
	}
	if req.Trace.Valid() {
		b[0] |= traceFlag
		b = trace.AppendContext(b, req.Trace)
	}
	return b
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
	if req.Op >= opMax || opTable[req.Op].name == "" {
		return nil, fmt.Errorf("unknown op %d", req.Op)
	}
	row := &opTable[req.Op]
	if row.push {
		return nil, fmt.Errorf("push-only op %d", req.Op)
	}
	if req.Op == OpActivateBatch {
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
		return req, nil
	}
	c := cursor{b: body}
	for _, f := range row.fields {
		f.get(&c, req)
	}
	if c.short || c.off != len(body) {
		return nil, fmt.Errorf("op %d: body of %d bytes does not fit its fields", req.Op, len(body))
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
	return append(b, msg...)
}

// EncodeResponse serializes an OK response for the given op.
func EncodeResponse(op uint8, resp *Response) []byte {
	b := make([]byte, 0, 64)
	b = append(b, statusOK)
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	if op < opMax && opTable[op].enc != nil {
		b = opTable[op].enc(b, resp)
	}
	return b
}

// DecodeResponse parses a response payload for a request of the given op.
// Error replies decode for any op.
func DecodeResponse(op uint8, payload []byte) (*Response, error) {
	if len(payload) < 9 {
		return nil, fmt.Errorf("response payload of %d bytes", len(payload))
	}
	status, id, body := payload[0], binary.LittleEndian.Uint64(payload[1:9]), payload[9:]
	if status == statusErr {
		if len(body) < 3 {
			return nil, fmt.Errorf("error body of %d bytes", len(body))
		}
		n := int(binary.LittleEndian.Uint16(body[1:3]))
		if len(body) != 3+n {
			return nil, fmt.Errorf("error message of %d bytes in %d", n, len(body))
		}
		return &Response{ID: id, Err: &WireError{Code: body[0], Msg: string(body[3:])}}, nil
	}
	if status != statusOK {
		return nil, fmt.Errorf("unknown response status %d", status)
	}
	if op >= opMax || opTable[op].dec == nil {
		return nil, fmt.Errorf("unknown op %d", op)
	}
	// The cursor shares the Response's allocation: a decoder reached through
	// the table could not keep one of its own off the heap.
	d := &struct {
		Response
		cursor
	}{Response{ID: id}, cursor{b: body}}
	opTable[op].dec(&d.cursor, &d.Response)
	if d.err != nil {
		return nil, d.err
	}
	if d.short {
		return nil, fmt.Errorf("op %d: response truncated", op)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("op %d: %d trailing response bytes", op, len(body)-d.off)
	}
	d.b = nil // the reply must not pin the frame it was decoded from
	return &d.Response, nil
}

// cursor reads a response or request body front to back. The first read
// past the end sets short and every later read yields zero, so the shape
// decoders and request fields run straight-line and DecodeResponse and
// DecodeRequest check once. An announced count never sizes an allocation
// before its bytes have been seen: ids and take hand out memory only for
// bytes that are present, and counted lists cap their starting capacity
// and stop growing once short. Reading advances an offset, not the slice:
// a response's cursor sits in a heap object, where a pointer store per
// read would pay the GC write barrier.
type cursor struct {
	b     []byte
	off   int
	short bool  // a read ran past the end, or err is set
	err   error // a shape's own complaint, reported in place of "truncated"
}

// take consumes n bytes, or fails the cursor and returns nil.
func (c *cursor) take(n int) []byte {
	if c.short || len(c.b)-c.off < n {
		c.short = true
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// scalar is take for the fixed-width readers: a failed cursor reads zeros.
func (c *cursor) scalar(n int) []byte {
	if b := c.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

var zeros [8]byte

func (c *cursor) u8() uint8      { return c.scalar(1)[0] }
func (c *cursor) u32() uint32    { return binary.LittleEndian.Uint32(c.scalar(4)) }
func (c *cursor) u64() uint64    { return binary.LittleEndian.Uint64(c.scalar(8)) }
func (c *cursor) float() float64 { return math.Float64frombits(c.u64()) }

// ids reads count(4) then that many node IDs.
func (c *cursor) ids() []int {
	n := int(c.u32())
	raw := c.take(4 * n)
	if c.short {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendIDs(b []byte, ids []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ids)))
	for _, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// The empty body: a bare acknowledgement (after OpReplSubscribe's, the
// stream that follows carries the data).
func encEmpty(b []byte, _ *Response) []byte { return b }

func decEmpty(*cursor, *Response) {}

func encAccepted(b []byte, resp *Response) []byte {
	return binary.LittleEndian.AppendUint32(b, resp.Accepted)
}

func decAccepted(c *cursor, resp *Response) { resp.Accepted = c.u32() }

func encClusters(b []byte, resp *Response) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Clusters)))
	for _, ids := range resp.Clusters {
		b = appendIDs(b, ids)
	}
	return b
}

func decClusters(c *cursor, resp *Response) {
	n := int(c.u32())
	resp.Clusters = make([][]int, 0, min(n, 1024))
	for i := 0; i < n && !c.short; i++ {
		resp.Clusters = append(resp.Clusters, c.ids())
	}
}

func encMembers(b []byte, resp *Response) []byte { return appendIDs(b, resp.Members) }

func decMembers(c *cursor, resp *Response) { resp.Members = c.ids() }

func encValue(b []byte, resp *Response) []byte { return appendFloat(b, resp.Value) }

func decValue(c *cursor, resp *Response) { resp.Value = c.float() }

func encStats(b []byte, resp *Response) []byte {
	s := &resp.Stats
	b = binary.LittleEndian.AppendUint32(b, s.Nodes)
	b = binary.LittleEndian.AppendUint32(b, s.Edges)
	b = binary.LittleEndian.AppendUint32(b, s.Levels)
	b = binary.LittleEndian.AppendUint32(b, s.SqrtLevel)
	b = binary.LittleEndian.AppendUint64(b, s.Activations)
	b = appendFloat(b, s.Now)
	b = binary.LittleEndian.AppendUint32(b, s.Inflight)
	b = binary.LittleEndian.AppendUint32(b, s.Queued)
	b = appendBool(b, s.Draining)
	b = append(b, s.Role)
	b = binary.LittleEndian.AppendUint64(b, s.ReplLagFrames)
	return appendFloat(b, s.ReplLagSeconds)
}

func decStats(c *cursor, resp *Response) {
	resp.Stats = StatsReply{
		Nodes: c.u32(), Edges: c.u32(), Levels: c.u32(), SqrtLevel: c.u32(),
		Activations: c.u64(), Now: c.float(),
		Inflight: c.u32(), Queued: c.u32(), Draining: c.u8() != 0,
		Role: c.u8(), ReplLagFrames: c.u64(), ReplLagSeconds: c.float(),
	}
}

func encEvents(b []byte, resp *Response) []byte {
	b = binary.LittleEndian.AppendUint64(b, resp.Seq)
	b = binary.LittleEndian.AppendUint64(b, resp.Dropped)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Events)))
	for _, e := range resp.Events {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Node))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Other))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Level))
		b = appendBool(b, e.Joined)
		b = appendFloat(b, e.Time)
	}
	return b
}

func decEvents(c *cursor, resp *Response) {
	resp.Seq, resp.Dropped = c.u64(), c.u64()
	n := int(c.u32())
	resp.Events = make([]anc.ClusterEvent, 0, min(n, 1024))
	for i := 0; i < n && !c.short; i++ {
		resp.Events = append(resp.Events, anc.ClusterEvent{
			Node: int(c.u32()), Other: int(c.u32()), Level: int(c.u32()),
			Joined: c.u8() != 0, Time: c.float(),
		})
	}
}

func encReplStatus(b []byte, resp *Response) []byte { return appendReplStatus(b, &resp.Repl) }

func decReplStatus(c *cursor, resp *Response) {
	st, rest, err := decodeReplStatus(c.b[c.off:])
	if err != nil {
		c.err, c.short = err, true
		return
	}
	resp.Repl, c.off = *st, len(c.b)-len(rest)
}

// appendRankEntries serializes one top-k listing: count(4) then
// node(4) + score(8) per entry.
func appendRankEntries(b []byte, entries []anc.RankEntry) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Node))
		b = appendFloat(b, e.Score)
	}
	return b
}

func (c *cursor) rankEntries() []anc.RankEntry {
	n := int(c.u32())
	out := make([]anc.RankEntry, 0, min(n, 1024))
	for i := 0; i < n && !c.short; i++ {
		out = append(out, anc.RankEntry{Node: int(c.u32()), Score: c.float()})
	}
	return out
}

func encRank(b []byte, resp *Response) []byte {
	r := &resp.Rank
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Level))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Iters))
	b = appendBool(b, r.Converged)
	b = appendFloat(b, r.Now)
	b = appendRankEntries(b, r.Global)
	// A global-only answer (Level -1) carries zero groups; decoding
	// enforces that, so the encoding stays canonical.
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Clusters)))
	for _, g := range r.Clusters {
		b = appendRankEntries(b, g)
	}
	return b
}

func decRank(c *cursor, resp *Response) {
	r := &resp.Rank
	r.Level, r.Iters = int(int32(c.u32())), int(c.u32())
	r.Converged, r.Now = c.u8() != 0, c.float()
	r.Global = c.rankEntries()
	n := int(c.u32())
	if r.Level < 0 && n != 0 {
		c.err, c.short = fmt.Errorf("tierank: %d groups on a global-only answer", n), true
	}
	if n > 0 {
		r.Clusters = make([][]anc.RankEntry, 0, min(n, 1024))
	}
	for i := 0; i < n && !c.short; i++ {
		r.Clusters = append(r.Clusters, c.rankEntries())
	}
}

func encEvolution(b []byte, resp *Response) []byte {
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
		b = appendFloat(b, e.Time)
	}
	return b
}

func decEvolution(c *cursor, resp *Response) {
	resp.Seq, resp.Dropped = c.u64(), c.u64()
	n := int(c.u32())
	resp.Evo = make([]anc.EvolutionEvent, 0, min(n, 1024))
	for i := 0; i < n && !c.short; i++ {
		resp.Evo = append(resp.Evo, anc.EvolutionEvent{
			Seq: c.u64(), Type: anc.EvolutionEventType(c.u8()),
			Level: int(c.u32()), Node: int(c.u32()), Size: int(c.u32()), PrevSize: int(c.u32()),
			Time: c.float(),
		})
	}
}

func encRaw(b []byte, resp *Response) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Raw)))
	return append(b, resp.Raw...)
}

func decRaw(c *cursor, resp *Response) {
	resp.Raw = append([]byte(nil), c.take(int(c.u32()))...)
}
