package serve

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"testing"
)

// updateGolden regenerates testdata/golden_frames.txt from the current
// encoders. The committed file was generated before the ID-translation
// and op-table refactors; regenerate it only for a deliberate wire change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_frames.txt")

const goldenPath = "testdata/golden_frames.txt"

// goldenFrames renders every sample request, every sample OK response,
// the replication push payloads and one error reply as "kind op hex"
// lines. Round-trip tests prove decode∘encode identity; this pins the
// bytes themselves, so a refactor of the codec or of what sits around it
// can show "wire bytes unchanged".
func goldenFrames() []byte {
	var b bytes.Buffer
	line := func(kind string, op uint8, payload []byte) {
		fmt.Fprintf(&b, "%s %s %s\n", kind, OpName(op), hex.EncodeToString(payload))
	}
	for _, req := range sampleRequests() {
		line("req", req.Op, EncodeRequest(req))
	}
	for _, tc := range sampleResponses() {
		line("resp", tc.Op, EncodeResponse(tc.Op, tc.Resp))
	}
	line("push", OpReplFrames, EncodeReplFrames(&ReplFrames{
		First:  7,
		Frames: [][]byte{{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}, {0xaa, 0xbb}},
		Traces: []uint64{0, 0x1122334455667788},
	}))
	line("push", OpReplFrames, EncodeReplFrames(&ReplFrames{First: 9, Frames: [][]byte{{0xcc}}}))
	line("push", OpReplStatus, EncodeReplStatus(&ReplStatus{
		Role: RoleFollower, Next: 10, PrimaryNext: 12, Activations: 640,
		Now: 3.5, PrimaryNow: 4.25, LagSeconds: 0.5, Reconnects: 2, LastReconnect: "crash",
	}))
	line("push", OpReplSnapshot, EncodeReplSnapshot(&ReplSnapshot{
		Index: 5, Total: 8, Off: 4, Data: []byte{0xde, 0xad, 0xbe, 0xef},
	}))
	fmt.Fprintf(&b, "err overloaded %s\n", hex.EncodeToString(EncodeError(42, ErrCodeOverloaded, "queue full")))
	return b.Bytes()
}

func TestGoldenFrames(t *testing.T) {
	got := goldenFrames()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("wire bytes changed at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("wire frames changed: %d lines, golden has %d", len(gl), len(wl))
}
