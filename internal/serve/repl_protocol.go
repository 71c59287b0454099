package serve

// Replication wire messages. After an OpReplSubscribe request is
// acknowledged with an OK response, the connection stops being
// request/response: the server pushes frames whose payload starts with an
// op byte (OpReplFrames, OpReplStatus, OpReplSnapshot) — or statusErr for
// a typed error such as the shutdown drain notice — and the follower only
// reads. The framing itself (length + CRC32C) is unchanged, so a torn or
// corrupted push frame is detected exactly like a torn WAL record.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Replication roles reported in ReplStatus.Role and StatsReply.Role.
const (
	// RoleNone: replication is not configured on this node.
	RoleNone uint8 = iota
	// RolePrimary: this node accepts ingest and serves the frame stream.
	RolePrimary
	// RoleFollower: this node applies a primary's frames and rejects
	// ingest with ErrCodeReadOnly until promoted.
	RoleFollower
)

// RoleName maps roles to stable short names for logs and CLI output.
func RoleName(role uint8) string {
	switch role {
	case RoleNone:
		return "none"
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return fmt.Sprintf("role-%d", role)
}

// ReplStatus is a replication health snapshot: the body of an
// OpReplStatus response and the heartbeat push on a replication stream.
type ReplStatus struct {
	// Role is the reporting node's current role.
	Role uint8
	// Next is the node's local WAL cursor (index one past the last logged
	// frame). PrimaryNext is the primary's cursor as of the node's last
	// replication message — equal to Next on the primary itself.
	Next, PrimaryNext uint64
	// Activations is the node's applied-activation count (frames can carry
	// many activations, so this moves faster than Next).
	Activations uint64
	// Now is the node's network time; PrimaryNow the primary's network
	// time as of the last replication message. Their difference is the
	// decayed-state staleness bound: a follower lagging by Δt serves the
	// well-defined state of time Now, not a wrong one.
	Now, PrimaryNow float64
	// LagSeconds is the wall-clock age of the node's last replication
	// message (0 on the primary).
	LagSeconds float64
	// Reconnects counts replication session re-establishments;
	// LastReconnect is the cause of the most recent one ("drain", "crash",
	// "gap", ... — empty until the first).
	Reconnects    uint32
	LastReconnect string
}

// LagFrames is the follower's frame lag: committed primary frames not yet
// in the local log.
func (s *ReplStatus) LagFrames() uint64 {
	if s.PrimaryNext > s.Next {
		return s.PrimaryNext - s.Next
	}
	return 0
}

// ReplFrames is one batch of shipped WAL frames: contiguous records
// starting at global index First, each payload exactly as it sits in the
// primary's log.
//
// Traces, when non-nil, carries one trace ID per frame (0 = untraced), so
// a follower's apply spans stitch into the primary's trace. The section
// is optional on the wire: the primary ships it only when some ID is
// non-zero, and an absent section decodes as nil.
type ReplFrames struct {
	First  uint64
	Frames [][]byte
	Traces []uint64
}

// ReplSnapshot is one chunk of a checkpoint shipped to bootstrap a
// follower whose log is behind the primary's retained segments. Index is
// the WAL index the checkpoint covers, Total the full snapshot size, Off
// this chunk's offset; chunks arrive in order and the message with
// Off+len(Data) == Total completes the snapshot.
type ReplSnapshot struct {
	Index, Total, Off uint64
	Data              []byte
}

// ReplMessage is one decoded push frame from a replication stream:
// exactly one of Frames, Status, Snapshot, Err is set.
type ReplMessage struct {
	Frames   *ReplFrames
	Status   *ReplStatus
	Snapshot *ReplSnapshot
	Err      *WireError
}

// ---- encode -------------------------------------------------------------

func appendReplStatus(b []byte, s *ReplStatus) []byte {
	last := s.LastReconnect
	if len(last) > math.MaxUint16 {
		last = last[:math.MaxUint16]
	}
	b = append(b, s.Role)
	b = binary.LittleEndian.AppendUint64(b, s.Next)
	b = binary.LittleEndian.AppendUint64(b, s.PrimaryNext)
	b = binary.LittleEndian.AppendUint64(b, s.Activations)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Now))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.PrimaryNow))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.LagSeconds))
	b = binary.LittleEndian.AppendUint32(b, s.Reconnects)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(last)))
	b = append(b, last...)
	return b
}

func decodeReplStatus(body []byte) (*ReplStatus, []byte, error) {
	const fixed = 1 + 6*8 + 4 + 2
	if len(body) < fixed {
		return nil, nil, fmt.Errorf("repl status of %d bytes", len(body))
	}
	s := &ReplStatus{
		Role:        body[0],
		Next:        binary.LittleEndian.Uint64(body[1:9]),
		PrimaryNext: binary.LittleEndian.Uint64(body[9:17]),
		Activations: binary.LittleEndian.Uint64(body[17:25]),
		Now:         math.Float64frombits(binary.LittleEndian.Uint64(body[25:33])),
		PrimaryNow:  math.Float64frombits(binary.LittleEndian.Uint64(body[33:41])),
		LagSeconds:  math.Float64frombits(binary.LittleEndian.Uint64(body[41:49])),
		Reconnects:  binary.LittleEndian.Uint32(body[49:53]),
	}
	n := int(binary.LittleEndian.Uint16(body[53:55]))
	if len(body) < fixed+n {
		return nil, nil, fmt.Errorf("repl status reconnect cause of %d bytes in %d", n, len(body)-fixed)
	}
	s.LastReconnect = string(body[fixed : fixed+n])
	return s, body[fixed+n:], nil
}

// EncodeReplStatus serializes a status push payload (op byte included).
func EncodeReplStatus(s *ReplStatus) []byte {
	b := make([]byte, 0, 64+len(s.LastReconnect))
	b = append(b, OpReplStatus)
	return appendReplStatus(b, s)
}

// DecodeReplStatus parses a status push payload. It is strict: trailing
// bytes are an error, so a decode always round-trips byte-identically
// through EncodeReplStatus.
func DecodeReplStatus(payload []byte) (*ReplStatus, error) {
	if len(payload) < 1 || payload[0] != OpReplStatus {
		return nil, fmt.Errorf("not a repl-status payload")
	}
	s, rest, err := decodeReplStatus(payload[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("repl status: %d trailing bytes", len(rest))
	}
	return s, nil
}

// EncodeReplFrames serializes a frame-batch push payload: op(1) |
// first(8) | count(4) | {len(4) | payload}* , followed — only when
// Traces is non-nil — by a trace-ID section of exactly count uint64s.
// Traces must then have one entry per frame.
func EncodeReplFrames(f *ReplFrames) []byte {
	size := 13
	for _, fr := range f.Frames {
		size += 4 + len(fr)
	}
	if f.Traces != nil {
		size += 8 * len(f.Traces)
	}
	b := make([]byte, 0, size)
	b = append(b, OpReplFrames)
	b = binary.LittleEndian.AppendUint64(b, f.First)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Frames)))
	for _, fr := range f.Frames {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(fr)))
		b = append(b, fr...)
	}
	for _, id := range f.Traces {
		b = binary.LittleEndian.AppendUint64(b, id)
	}
	return b
}

// DecodeReplFrames parses a frame-batch push payload. Strict: a record
// announcing more bytes than remain, a zero-length record and trailing
// bytes are all errors — a truncated batch must never apply a prefix
// silently.
func DecodeReplFrames(payload []byte) (*ReplFrames, error) {
	if len(payload) < 13 || payload[0] != OpReplFrames {
		return nil, fmt.Errorf("not a repl-frames payload")
	}
	f := &ReplFrames{First: binary.LittleEndian.Uint64(payload[1:9])}
	count := int(binary.LittleEndian.Uint32(payload[9:13]))
	body := payload[13:]
	f.Frames = make([][]byte, 0, min(count, 1024))
	for i := 0; i < count; i++ {
		if len(body) < 4 {
			return nil, fmt.Errorf("repl frames: record %d header truncated", i)
		}
		n := int(binary.LittleEndian.Uint32(body[0:4]))
		body = body[4:]
		if n == 0 {
			return nil, fmt.Errorf("repl frames: empty record %d", i)
		}
		if len(body) < n {
			return nil, fmt.Errorf("repl frames: record %d of %d bytes, %d remain", i, n, len(body))
		}
		f.Frames = append(f.Frames, body[:n:n])
		body = body[n:]
	}
	// An optional trace-ID section: either absent or exactly one uint64
	// per frame (and never empty, so decode∘encode stays byte-identical).
	if len(body) == 8*count && count > 0 {
		f.Traces = make([]uint64, count)
		for i := range f.Traces {
			f.Traces[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		body = nil
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("repl frames: %d trailing bytes", len(body))
	}
	return f, nil
}

// EncodeReplSnapshot serializes a snapshot-chunk push payload: op(1) |
// index(8) | total(8) | off(8) | len(4) | data.
func EncodeReplSnapshot(s *ReplSnapshot) []byte {
	b := make([]byte, 0, 29+len(s.Data))
	b = append(b, OpReplSnapshot)
	b = binary.LittleEndian.AppendUint64(b, s.Index)
	b = binary.LittleEndian.AppendUint64(b, s.Total)
	b = binary.LittleEndian.AppendUint64(b, s.Off)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Data)))
	b = append(b, s.Data...)
	return b
}

// DecodeReplSnapshot parses a snapshot-chunk push payload, strictly.
func DecodeReplSnapshot(payload []byte) (*ReplSnapshot, error) {
	if len(payload) < 29 || payload[0] != OpReplSnapshot {
		return nil, fmt.Errorf("not a repl-snapshot payload")
	}
	s := &ReplSnapshot{
		Index: binary.LittleEndian.Uint64(payload[1:9]),
		Total: binary.LittleEndian.Uint64(payload[9:17]),
		Off:   binary.LittleEndian.Uint64(payload[17:25]),
	}
	n := int(binary.LittleEndian.Uint32(payload[25:29]))
	if len(payload) != 29+n {
		return nil, fmt.Errorf("repl snapshot chunk of %d bytes, want %d", len(payload)-29, n)
	}
	if s.Off+uint64(n) > s.Total {
		return nil, fmt.Errorf("repl snapshot chunk [%d, %d) past total %d", s.Off, s.Off+uint64(n), s.Total)
	}
	s.Data = payload[29 : 29+n : 29+n]
	return s, nil
}

// DecodeReplMessage parses one push payload from a replication stream by
// its leading byte. A statusErr payload (the server's typed drain notice)
// decodes into Err; anything else is a protocol violation.
func DecodeReplMessage(payload []byte) (*ReplMessage, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("empty repl message")
	}
	switch payload[0] {
	case OpReplFrames:
		f, err := DecodeReplFrames(payload)
		if err != nil {
			return nil, err
		}
		return &ReplMessage{Frames: f}, nil
	case OpReplStatus:
		s, err := DecodeReplStatus(payload)
		if err != nil {
			return nil, err
		}
		return &ReplMessage{Status: s}, nil
	case OpReplSnapshot:
		s, err := DecodeReplSnapshot(payload)
		if err != nil {
			return nil, err
		}
		return &ReplMessage{Snapshot: s}, nil
	case statusErr:
		resp, err := DecodeResponse(OpReplSubscribe, payload)
		if err != nil {
			return nil, err
		}
		return &ReplMessage{Err: resp.Err}, nil
	}
	return nil, fmt.Errorf("unexpected repl message op %d", payload[0])
}

// ReadFrame reads one length+CRC frame from a replication stream,
// enforcing maxFrame — the exported form of the server's frame reader,
// for follower loops outside this package.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	return readFrame(r, maxFrame)
}

// WriteFrame frames and flushes one payload — the exported form of the
// server's frame writer, for replication senders outside this package.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	return writeFrame(w, payload)
}
