package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

func sampleReplStatus() *ReplStatus {
	return &ReplStatus{
		Role: RoleFollower, Next: 100, PrimaryNext: 112, Activations: 2000,
		Now: 50.5, PrimaryNow: 56.0, LagSeconds: 0.125,
		Reconnects: 4, LastReconnect: "stall",
	}
}

func sampleReplFrames() *ReplFrames {
	return &ReplFrames{First: 77, Frames: [][]byte{
		{1, 2, 3, 4},
		bytes.Repeat([]byte{0xAB}, 160),
		{9},
	}}
}

func sampleReplSnapshot() *ReplSnapshot {
	return &ReplSnapshot{Index: 60, Total: 1000, Off: 512, Data: bytes.Repeat([]byte{7}, 200)}
}

func TestReplStatusRoundTrip(t *testing.T) {
	for _, s := range []*ReplStatus{sampleReplStatus(), {}, {Role: RolePrimary, Next: 5, PrimaryNext: 5}} {
		payload := EncodeReplStatus(s)
		got, err := DecodeReplStatus(payload)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *s {
			t.Fatalf("round trip: got %+v, want %+v", got, s)
		}
		if !bytes.Equal(EncodeReplStatus(got), payload) {
			t.Fatal("re-encode differs")
		}
	}
	if s := sampleReplStatus(); s.LagFrames() != 12 {
		t.Fatalf("LagFrames = %d, want 12", s.LagFrames())
	}
	if s := (&ReplStatus{Next: 9, PrimaryNext: 3}); s.LagFrames() != 0 {
		t.Fatalf("negative lag clamped to %d, want 0", s.LagFrames())
	}
}

func TestReplFramesRoundTrip(t *testing.T) {
	f := sampleReplFrames()
	payload := EncodeReplFrames(f)
	got, err := DecodeReplFrames(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.First != f.First || len(got.Frames) != len(f.Frames) {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range f.Frames {
		if !bytes.Equal(got.Frames[i], f.Frames[i]) {
			t.Fatalf("frame %d mutated", i)
		}
	}
	if !bytes.Equal(EncodeReplFrames(got), payload) {
		t.Fatal("re-encode differs")
	}
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	s := sampleReplSnapshot()
	payload := EncodeReplSnapshot(s)
	got, err := DecodeReplSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != s.Index || got.Total != s.Total || got.Off != s.Off || !bytes.Equal(got.Data, s.Data) {
		t.Fatalf("round trip: %+v", got)
	}
	if !bytes.Equal(EncodeReplSnapshot(got), payload) {
		t.Fatal("re-encode differs")
	}
}

// TestReplSnapshotWireRoundTrip: a snapshot chunk survives the stream
// decoder field for field.
func TestReplSnapshotWireRoundTrip(t *testing.T) {
	in := sampleReplSnapshot()
	msg, err := DecodeReplMessage(EncodeReplSnapshot(in))
	if err != nil || msg.Snapshot == nil || !reflect.DeepEqual(msg.Snapshot, in) {
		t.Fatalf("stream decode: got %+v (%v), want %+v", msg, err, in)
	}
}

func TestDecodeReplRejects(t *testing.T) {
	frames := EncodeReplFrames(sampleReplFrames())

	countLies := bytes.Clone(frames)
	binary.LittleEndian.PutUint32(countLies[9:13], 1<<30)

	truncated := frames[:len(frames)-1]

	emptyRecord := func() []byte {
		b := []byte{OpReplFrames}
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint32(b, 0) // zero-length record
		return b
	}()

	snapPastTotal := EncodeReplSnapshot(&ReplSnapshot{Index: 1, Total: 10, Off: 8, Data: []byte{1, 2, 3}})

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown op", []byte{0xEE, 1, 2, 3}},
		{"frames count lies", countLies},
		{"frames truncated", truncated},
		{"frames trailing", append(bytes.Clone(frames), 0)},
		{"frames empty record", emptyRecord},
		{"status short", EncodeReplStatus(sampleReplStatus())[:20]},
		{"status trailing", append(EncodeReplStatus(sampleReplStatus()), 0)},
		{"snapshot short", EncodeReplSnapshot(sampleReplSnapshot())[:10]},
		{"snapshot past total", snapPastTotal},
	}
	for _, tc := range cases {
		if _, err := DecodeReplMessage(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestDecodeReplMessageDispatch(t *testing.T) {
	if m, err := DecodeReplMessage(EncodeReplFrames(sampleReplFrames())); err != nil || m.Frames == nil {
		t.Fatalf("frames dispatch: %v %+v", err, m)
	}
	if m, err := DecodeReplMessage(EncodeReplStatus(sampleReplStatus())); err != nil || m.Status == nil {
		t.Fatalf("status dispatch: %v %+v", err, m)
	}
	if m, err := DecodeReplMessage(EncodeReplSnapshot(sampleReplSnapshot())); err != nil || m.Snapshot == nil {
		t.Fatalf("snapshot dispatch: %v %+v", err, m)
	}
	// The typed drain notice a draining server pushes to its subscribers.
	drain := EncodeError(0, ErrCodeShuttingDown, "server is draining")
	m, err := DecodeReplMessage(drain)
	if err != nil || m.Err == nil || m.Err.Code != ErrCodeShuttingDown {
		t.Fatalf("drain dispatch: %v %+v", err, m)
	}
}

// TestReplStreamTornFrame replays a pre-encoded push stream that dies
// mid-frame, the way a crashed primary tears a TCP stream: every complete
// frame before the tear must decode, the tear itself must surface as an
// error from ReadFrame, and no partial message may leak through.
func TestReplStreamTornFrame(t *testing.T) {
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	pushes := []*ReplFrames{
		{First: 0, Frames: [][]byte{{1, 1, 1}, {2, 2}}},
		{First: 2, Frames: [][]byte{{3, 3, 3, 3}}},
		{First: 3, Frames: [][]byte{bytes.Repeat([]byte{4}, 300)}},
	}
	for _, p := range pushes {
		if err := WriteFrame(bw, EncodeReplFrames(p)); err != nil {
			t.Fatal(err)
		}
	}
	full := wire.Bytes()

	// Tear the stream inside the last frame's payload.
	torn := full[:len(full)-150]
	r := bytes.NewReader(torn)
	var decoded int
	for {
		payload, err := ReadFrame(r, DefaultMaxFrame)
		if err != nil {
			if err == io.EOF && decoded != len(pushes) {
				t.Fatalf("torn stream ended cleanly after %d messages", decoded)
			}
			break
		}
		msg, err := DecodeReplMessage(payload)
		if err != nil {
			t.Fatalf("complete frame %d failed to decode: %v", decoded, err)
		}
		if msg.Frames == nil || msg.Frames.First != pushes[decoded].First {
			t.Fatalf("message %d decoded wrong: %+v", decoded, msg)
		}
		decoded++
	}
	if decoded != 2 {
		t.Fatalf("decoded %d complete messages before the tear, want 2", decoded)
	}

	// Tear inside a frame HEADER (first bytes of the length word): the
	// reader must error, not block or fabricate a frame.
	hdrTorn := full[:2]
	if _, err := ReadFrame(bytes.NewReader(hdrTorn), DefaultMaxFrame); err == nil {
		t.Fatal("mid-header tear read as a frame")
	}
}

// FuzzReplFrame: any payload the frame-batch decoder accepts must re-encode
// byte-identically — the decoder is strict, so the encoding is canonical.
func FuzzReplFrame(f *testing.F) {
	f.Add(EncodeReplFrames(sampleReplFrames()))
	f.Add(EncodeReplFrames(&ReplFrames{First: 0}))
	f.Add([]byte{OpReplFrames})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeReplFrames(payload)
		if err != nil {
			return
		}
		if re := EncodeReplFrames(fr); !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
	})
}

// FuzzReplStatus: same byte-identity property for status payloads, plus
// snapshot chunks (they share the dispatch path).
func FuzzReplStatus(f *testing.F) {
	f.Add(EncodeReplStatus(sampleReplStatus()))
	f.Add(EncodeReplStatus(&ReplStatus{}))
	f.Add(EncodeReplSnapshot(sampleReplSnapshot()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if s, err := DecodeReplStatus(payload); err == nil {
			if re := EncodeReplStatus(s); !bytes.Equal(re, payload) {
				t.Fatalf("status decode/encode not canonical:\n in  %x\n out %x", payload, re)
			}
		}
		if s, err := DecodeReplSnapshot(payload); err == nil {
			if re := EncodeReplSnapshot(s); !bytes.Equal(re, payload) {
				t.Fatalf("snapshot decode/encode not canonical:\n in  %x\n out %x", payload, re)
			}
		}
	})
}
