package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"anc"
	"anc/internal/obs/trace"
)

// sampleRequests covers every op with representative field values.
func sampleRequests() []*Request {
	return []*Request{
		{Op: OpActivateBatch, ID: 1, Batch: []anc.Activation{
			{U: 0, V: 1, T: 1.5},
			{U: 4, V: 5, T: 2.25},
			{U: 9, V: 8, T: math.Pi},
		}},
		{Op: OpClusters, ID: 2, Level: 3},
		{Op: OpEvenClusters, ID: 3, Level: 1},
		{Op: OpClusterOf, ID: 4, Node: 7, Level: 2},
		{Op: OpSmallestClusterOf, ID: 5, Node: 9},
		{Op: OpEstimateDistance, ID: 6, U: 0, V: 9},
		{Op: OpEstimateAttraction, ID: 7, U: 4, V: 5},
		{Op: OpStats, ID: 8},
		{Op: OpWatch, ID: 9, Node: 3},
		{Op: OpUnwatch, ID: 10, Node: 3},
		{Op: OpDrainEvents, ID: 11},
		{Op: OpViewOpen, ID: 12},
		{Op: OpViewZoomIn, ID: 13, View: 1},
		{Op: OpViewZoomOut, ID: 14, View: 1},
		{Op: OpViewClusters, ID: 15, View: 1},
		{Op: OpViewClusterOf, ID: 16, View: 1, Node: 6},
		{Op: OpViewClose, ID: 17, View: 1},
		{Op: OpReplSubscribe, ID: 18, From: 123456},
		{Op: OpReplStatus, ID: 19},
		{Op: OpPromote, ID: 20},
		{Op: OpTieRank, ID: 21, Level: -1, K: 10},
		{Op: OpTieRank, ID: 22, Level: 2, K: 3},
		{Op: OpEvolution, ID: 23, From: 42},
		{Op: OpTraces, ID: 24, From: 0, K: 0},
		{Op: OpTraces, ID: 25, From: 0xdeadbeefcafef00d, K: 1},
		{Op: OpStats, ID: 26, Trace: trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99aabbccddeeff00}},
		{Op: OpActivateBatch, ID: 27, Batch: []anc.Activation{{U: 1, V: 2, T: 3.5}},
			Trace: trace.Context{TraceID: 7, SpanID: 9}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		payload := EncodeRequest(req)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("op %d: decode: %v", req.Op, err)
		}
		// Re-encoding the decoded request must be byte-identical: the
		// decoder is strict, so the encoding is canonical.
		if !bytes.Equal(EncodeRequest(got), payload) {
			t.Fatalf("op %d: re-encode differs", req.Op)
		}
		if got.Op != req.Op || got.ID != req.ID {
			t.Fatalf("op %d: header mismatch: %+v", req.Op, got)
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short header", []byte{OpStats, 0, 0}},
		{"zero op", append([]byte{0}, make([]byte, 8)...)},
		{"unknown op", append([]byte{opMax}, make([]byte, 8)...)},
		{"trailing bytes", append(EncodeRequest(&Request{Op: OpStats, ID: 1}), 0)},
		{"short body", EncodeRequest(&Request{Op: OpClusters, ID: 1})[:10]},
		{"batch count lies", func() []byte {
			b := EncodeRequest(&Request{Op: OpActivateBatch, ID: 1})
			binary.LittleEndian.PutUint32(b[9:13], 1<<30) // announce 2^30 records, carry none
			return b
		}()},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// sampleResponses pairs each op with a representative OK response.
type sampleResponse struct {
	Op   uint8
	Resp *Response
}

func sampleResponses() []sampleResponse {
	return []sampleResponse{
		{OpActivateBatch, &Response{ID: 1, Accepted: 64}},
		{OpClusters, &Response{ID: 2, Clusters: [][]int{{0, 1, 2}, {3}, {4, 5}}}},
		{OpEvenClusters, &Response{ID: 3, Clusters: [][]int{{9, 8, 7, 6}}}},
		{OpViewClusters, &Response{ID: 4, Clusters: [][]int{}}},
		{OpClusterOf, &Response{ID: 5, Members: []int{0, 4, 2}}},
		{OpSmallestClusterOf, &Response{ID: 6, Members: []int{9}}},
		{OpViewClusterOf, &Response{ID: 7, Members: []int{}}},
		{OpEstimateDistance, &Response{ID: 8, Value: 0.625}},
		{OpEstimateAttraction, &Response{ID: 9, Value: math.Inf(1)}},
		{OpStats, &Response{ID: 10, Stats: StatsReply{
			Nodes: 10, Edges: 21, Levels: 4, SqrtLevel: 2,
			Activations: 12345, Now: 98.5, Inflight: 3, Queued: 7, Draining: true,
			Role: RoleFollower, ReplLagFrames: 17, ReplLagSeconds: 0.25,
		}}},
		{OpWatch, &Response{ID: 11}},
		{OpUnwatch, &Response{ID: 12}},
		{OpDrainEvents, &Response{ID: 13, Dropped: 2, Events: []anc.ClusterEvent{
			{Node: 1, Other: 2, Level: 3, Joined: true, Time: 4.5},
			{Node: 6, Other: 7, Level: 1, Joined: false, Time: 9.75},
		}}},
		{OpViewOpen, &Response{ID: 14, View: 3, Level: 2}},
		{OpViewZoomIn, &Response{ID: 15, Moved: true, Level: 3}},
		{OpViewZoomOut, &Response{ID: 16, Moved: false, Level: 1}},
		{OpViewClose, &Response{ID: 17}},
		{OpReplSubscribe, &Response{ID: 18}},
		{OpReplStatus, &Response{ID: 19, Repl: ReplStatus{
			Role: RolePrimary, Next: 1000, PrimaryNext: 1000, Activations: 9999,
			Now: 42.5, PrimaryNow: 42.5, Reconnects: 3, LastReconnect: "stall",
		}}},
		{OpPromote, &Response{ID: 20}},
		{OpTieRank, &Response{ID: 21, Rank: anc.TieRankResult{
			Global: []anc.RankEntry{{Node: 3, Score: 0.75}, {Node: 0, Score: 0.5}},
			Level:  -1, Iters: 17, Converged: true, Now: 12.5,
		}}},
		{OpTieRank, &Response{ID: 22, Rank: anc.TieRankResult{
			Global: []anc.RankEntry{{Node: 1, Score: 0.9}},
			Level:  2,
			Clusters: [][]anc.RankEntry{
				{{Node: 1, Score: 0.9}, {Node: 2, Score: 0.1}},
				{},
			},
			Iters: 100, Converged: false, Now: 0,
		}}},
		{OpEvolution, &Response{ID: 23, Seq: 6, Dropped: 2, Evo: []anc.EvolutionEvent{
			{Seq: 5, Type: anc.EvolutionSplit, Level: 2, Node: 0, Size: 2, PrevSize: 8, Time: 3.5},
			{Seq: 6, Type: anc.EvolutionBirth, Level: 2, Node: 9, Size: 4, PrevSize: 0, Time: 3.5},
		}}},
		{OpTraces, &Response{ID: 24, Raw: []byte(`{"traces":[]}`)}},
		{OpTraces, &Response{ID: 25, Raw: []byte{}}},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, tc := range sampleResponses() {
		payload := EncodeResponse(tc.Op, tc.Resp)
		got, err := DecodeResponse(tc.Op, payload)
		if err != nil {
			t.Fatalf("op %d: decode: %v", tc.Op, err)
		}
		if got.ID != tc.Resp.ID {
			t.Fatalf("op %d: id %d, want %d", tc.Op, got.ID, tc.Resp.ID)
		}
		if !bytes.Equal(EncodeResponse(tc.Op, got), payload) {
			t.Fatalf("op %d: re-encode differs", tc.Op)
		}
	}
}

func TestErrorReplyRoundTrip(t *testing.T) {
	payload := EncodeError(42, ErrCodeOverloaded, "queue full")
	// Error replies decode regardless of the request op.
	for _, op := range []uint8{OpActivateBatch, OpStats, OpViewClusters} {
		resp, err := DecodeResponse(op, payload)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if resp.ID != 42 || resp.Err == nil || resp.Err.Code != ErrCodeOverloaded ||
			resp.Err.Msg != "queue full" {
			t.Fatalf("op %d: bad error reply %+v", op, resp)
		}
		if !strings.Contains(resp.Err.Error(), "overloaded") {
			t.Fatalf("error text %q lacks code name", resp.Err.Error())
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := EncodeRequest(&Request{Op: OpStats, ID: 99})
	if err := writeFrame(bufio.NewWriter(&buf), payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame payload mutated in transit")
	}
}

func TestReadFrameRejects(t *testing.T) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(bufio.NewWriter(&buf), payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := frame([]byte("hello"))

	corruptCRC := bytes.Clone(good)
	corruptCRC[len(corruptCRC)-1] ^= 0x01
	zeroLen := make([]byte, frameHeaderSize)
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[0:4], uint32(DefaultMaxFrame)+1)

	cases := []struct {
		name string
		raw  []byte
		code uint8
	}{
		{"crc mismatch", corruptCRC, ErrCodeBadFrame},
		{"zero length", zeroLen, ErrCodeBadFrame},
		{"oversized", huge, ErrCodeFrameTooBig},
	}
	for _, tc := range cases {
		_, err := readFrame(bytes.NewReader(tc.raw), DefaultMaxFrame)
		fe, ok := err.(*frameError)
		if !ok {
			t.Fatalf("%s: got %v, want *frameError", tc.name, err)
		}
		if fe.code != tc.code {
			t.Fatalf("%s: code %d, want %d", tc.name, fe.code, tc.code)
		}
	}
}

func TestPreamble(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePreamble(&buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint16(buf.Bytes()[4:6]); got != Version {
		t.Fatalf("wrote version %d, want %d", got, Version)
	}
	if err := ReadPreamble(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(buf.Bytes())
	bad[0] = 'X'
	if err := ReadPreamble(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A peer announcing a version above ours is fine — it is answered
	// with Version, our ceiling — but one below it is not.
	future := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint16(future[4:6], Version+1)
	if err := ReadPreamble(bytes.NewReader(future)); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	ancient := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint16(ancient[4:6], Version-1)
	if err := ReadPreamble(bytes.NewReader(ancient)); err == nil {
		t.Fatal("pre-Version peer accepted")
	}
}

// TestOpTableComplete holds what the wirecomplete analyzer held, as
// behaviour: unique names; push-only rows refused as requests; every other
// row with both codec halves and a sample request and response (hence a
// golden line, both round-trip tests, both fuzz corpora); the resend flag
// equal to the split the client has always made; a live server with an
// execQuery arm for each. TestAllErrCodesRoundTrip is the error-code half.
func TestOpTableComplete(t *testing.T) {
	resend := map[string]bool{"clusters": true, "even-clusters": true, "cluster-of": true,
		"smallest-cluster-of": true, "estimate-distance": true, "estimate-attraction": true,
		"tierank": true, "evolution": true, "traces": true, "stats": true, "repl-status": true}
	inReq, inResp := map[uint8]bool{}, map[uint8]bool{}
	for _, req := range sampleRequests() {
		inReq[req.Op] = true
	}
	for _, tc := range sampleResponses() {
		inResp[tc.Op] = true
	}
	names := map[string]uint8{}
	for op := uint8(1); op < opMax; op++ {
		row := opTable[op]
		if prev, dup := names[row.name]; row.name == "" || dup {
			t.Errorf("op %d: name %q is empty or shared with op %d", op, row.name, prev)
		}
		names[row.name] = op
		if ResendSafe(op) != resend[row.name] {
			t.Errorf("%s: ResendSafe = %v, want %v", row.name, ResendSafe(op), resend[row.name])
		}
		delete(resend, row.name)
		if row.push {
			if _, err := DecodeRequest(EncodeRequest(&Request{Op: op})); err == nil || row.enc != nil || row.dec != nil {
				t.Errorf("%s: a push-only op decodes as a request or has a response codec", row.name)
			}
			continue
		}
		if row.enc == nil || row.dec == nil {
			t.Errorf("%s: response codec incomplete", row.name)
		}
		if !inReq[op] || !inResp[op] {
			t.Errorf("%s: in sampleRequests %v, in sampleResponses %v; want both", row.name, inReq[op], inResp[op])
		}
	}
	if len(resend) != 0 {
		t.Errorf("resend-safe ops %v are not in the table", resend)
	}

	s := startServer(t, anc.NewConcurrent(testNetwork(t)), Config{})
	defer shutdownServer(t, s)
	for _, req := range sampleRequests() {
		// A connection each: OpReplSubscribe ends the one it arrives on.
		resp := dialTest(t, s.Addr().String()).rpcAllowErr(req)
		if resp.Err != nil && strings.Contains(resp.Err.Msg, "unknown op") {
			t.Errorf("%s: server has no dispatch arm: %v", OpName(req.Op), resp.Err)
		}
	}
}

// TestAllErrCodesRoundTrip drives every code in 1..errCodeMax-1 through
// EncodeError → DecodeResponse and checks the code, message and a
// distinct stable name survive.
func TestAllErrCodesRoundTrip(t *testing.T) {
	seen := map[string]uint8{}
	for code := uint8(1); code < errCodeMax; code++ {
		payload := EncodeError(9, code, "boom")
		resp, err := DecodeResponse(OpStats, payload)
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		if resp.Err == nil || resp.Err.Code != code || resp.Err.Msg != "boom" {
			t.Fatalf("code %d: bad reply %+v", code, resp)
		}
		name := errCodeNames[code]
		if prev, dup := seen[name]; name == "" || dup {
			t.Fatalf("code %d: name %q is empty or shared with code %d", code, name, prev)
		}
		seen[name] = code
	}
}

// FuzzDecodeRequest feeds arbitrary payloads through the request decoder.
// Anything that decodes must re-encode byte-identically: the strict decoder
// admits only canonical encodings, so decode∘encode is the identity on its
// accepted set.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(EncodeRequest(req))
	}
	f.Add([]byte{})
	f.Add([]byte{OpActivateBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		if re := EncodeRequest(req); !bytes.Equal(re, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, re)
		}
	})
}

// FuzzDecodeResponse feeds arbitrary payloads through the response decoder
// for every op. A successful decode must survive a canonical re-encode and
// re-decode (bools on the wire may be non-canonical, so the first re-encode
// need not match the input bytes — but the canonical form must be a fixed
// point).
func FuzzDecodeResponse(f *testing.F) {
	for _, tc := range sampleResponses() {
		f.Add(tc.Op, EncodeResponse(tc.Op, tc.Resp))
	}
	f.Add(OpStats, EncodeError(1, ErrCodeDeadline, "late"))
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		resp, err := DecodeResponse(op, payload)
		if err != nil || resp.Err != nil {
			return
		}
		canon := EncodeResponse(op, resp)
		again, err := DecodeResponse(op, canon)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		if !bytes.Equal(EncodeResponse(op, again), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
