package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"anc"
	"anc/internal/obs/trace"
)

// barbell builds two K5s joined by a bridge — the suite's standard small
// graph (10 nodes, 21 edges, 4 levels).
func barbell() (int, [][2]int) {
	var edges [][2]int
	for base := 0; base <= 5; base += 5 {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	edges = append(edges, [2]int{4, 5})
	return 10, edges
}

func testNetwork(t *testing.T) *anc.Network {
	t.Helper()
	n, edges := barbell()
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.2
	cfg.Mu = 3
	net, err := anc.NewNetwork(n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func canonClusters(cs [][]int) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		c = append([]int(nil), c...)
		sort.Ints(c)
		parts[i] = fmt.Sprint(c)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// testStream returns nb batches of per-batch activations over the barbell
// bridge and clique edges with strictly increasing timestamps.
func testStream(nb, per int) [][]anc.Activation {
	_, edges := barbell()
	batches := make([][]anc.Activation, nb)
	t := 0.0
	for i := range batches {
		batch := make([]anc.Activation, per)
		for j := range batch {
			e := edges[(i*per+j)*7%len(edges)]
			t += 0.5
			batch[j] = anc.Activation{U: e[0], V: e[1], T: t}
		}
		batches[i] = batch
	}
	return batches
}

// testClient is a minimal raw-frame protocol speaker: enough to exercise
// the server without the client library, and low-level enough to send
// deliberately malformed traffic.
type testClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	id   uint64
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &testClient{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := WritePreamble(conn); err != nil {
		t.Fatal(err)
	}
	if err := ReadPreamble(c.br); err != nil {
		t.Fatal(err)
	}
	return c
}

// send frames and flushes a raw payload.
func (c *testClient) send(payload []byte) {
	c.t.Helper()
	if err := writeFrame(c.bw, payload); err != nil {
		c.t.Fatal(err)
	}
}

// recv reads one response frame for a request of the given op.
func (c *testClient) recv(op uint8) *Response {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := readFrame(c.br, DefaultMaxFrame)
	if err != nil {
		c.t.Fatalf("recv op %d: %v", op, err)
	}
	resp, err := DecodeResponse(op, payload)
	if err != nil {
		c.t.Fatalf("recv op %d: %v", op, err)
	}
	return resp
}

// rpc runs one request/response exchange and fails the test on an error
// reply.
func (c *testClient) rpc(req *Request) *Response {
	c.t.Helper()
	resp := c.rpcAllowErr(req)
	if resp.Err != nil {
		c.t.Fatalf("op %d: %v", req.Op, resp.Err)
	}
	return resp
}

// rpcAllowErr runs one exchange and returns the response even if it is a
// typed error reply.
func (c *testClient) rpcAllowErr(req *Request) *Response {
	c.t.Helper()
	c.id++
	req.ID = c.id
	c.send(EncodeRequest(req))
	resp := c.recv(req.Op)
	if resp.ID != req.ID {
		c.t.Fatalf("op %d: response id %d, want %d", req.Op, resp.ID, req.ID)
	}
	return resp
}

// expectClosed asserts the server closes the connection (EOF or reset).
func (c *testClient) expectClosed() {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.br.ReadByte(); err == nil {
		c.t.Fatal("connection still open, want closed")
	}
}

func startServer(t *testing.T, backend Backend, cfg Config) *Server {
	t.Helper()
	s := New(backend, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerRoundTrip drives every op over TCP and checks each reply
// against the backend queried directly.
func TestServerRoundTrip(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	// Watch before ingest so cluster events accumulate server-side.
	c.rpc(&Request{Op: OpWatch, Node: 4})

	batches := testStream(4, 25)
	var sent uint32
	for _, b := range batches {
		resp := c.rpc(&Request{Op: OpActivateBatch, Batch: b})
		sent += uint32(len(b))
		if resp.Accepted != uint32(len(b)) {
			t.Fatalf("accepted %d, want %d", resp.Accepted, len(b))
		}
	}

	level := backend.SqrtLevel()
	if got, want := canonClusters(c.rpc(&Request{Op: OpClusters, Level: int32(level)}).Clusters),
		canonClusters(backend.Clusters(level)); got != want {
		t.Fatalf("clusters:\n got %s\n want %s", got, want)
	}
	if got, want := canonClusters(c.rpc(&Request{Op: OpEvenClusters, Level: int32(level)}).Clusters),
		canonClusters(backend.EvenClusters(level)); got != want {
		t.Fatalf("even clusters:\n got %s\n want %s", got, want)
	}
	for v := 0; v < 10; v++ {
		if got, want := c.rpc(&Request{Op: OpClusterOf, Node: uint32(v), Level: int32(level)}).Members,
			backend.ClusterOf(v, level); !reflect.DeepEqual(got, want) {
			t.Fatalf("clusterOf(%d): %v, want %v", v, got, want)
		}
		if got, want := c.rpc(&Request{Op: OpSmallestClusterOf, Node: uint32(v)}).Members,
			backend.SmallestClusterOf(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("smallestClusterOf(%d): %v, want %v", v, got, want)
		}
	}
	if got, want := c.rpc(&Request{Op: OpEstimateDistance, U: 0, V: 9}).Value,
		backend.EstimateDistance(0, 9); got != want {
		t.Fatalf("distance %v, want %v", got, want)
	}
	if got, want := c.rpc(&Request{Op: OpEstimateAttraction, U: 4, V: 5}).Value,
		backend.EstimateAttraction(4, 5); got != want {
		t.Fatalf("attraction %v, want %v", got, want)
	}

	stats := c.rpc(&Request{Op: OpStats}).Stats
	want := backend.Stats()
	if stats.Nodes != uint32(want.Nodes) || stats.Edges != uint32(want.Edges) ||
		stats.Levels != uint32(want.Levels) || stats.SqrtLevel != uint32(want.SqrtLevel) ||
		stats.Activations != want.Activations || stats.Now != want.Now {
		t.Fatalf("stats %+v, want %+v", stats, want)
	}
	if stats.Activations != uint64(sent) {
		t.Fatalf("activations %d, want %d", stats.Activations, sent)
	}
	if stats.Draining {
		t.Fatal("draining before shutdown")
	}

	// DrainEvents empties the watch buffer; a second drain is empty.
	c.rpc(&Request{Op: OpDrainEvents})
	resp := c.rpc(&Request{Op: OpDrainEvents})
	if len(resp.Events) != 0 || resp.Dropped != 0 {
		t.Fatalf("second drain returned %d events, %d dropped", len(resp.Events), resp.Dropped)
	}
	c.rpc(&Request{Op: OpUnwatch, Node: 4})

	// Zoom session: open at √n, zoom to the finest level and past it.
	open := c.rpc(&Request{Op: OpViewOpen})
	if open.Level != int32(level) {
		t.Fatalf("view opened at %d, want %d", open.Level, level)
	}
	cur := open.Level
	for {
		zr := c.rpc(&Request{Op: OpViewZoomIn, View: open.View})
		if !zr.Moved {
			if zr.Level != cur {
				t.Fatalf("failed zoom moved level %d -> %d", cur, zr.Level)
			}
			break
		}
		if zr.Level != cur+1 {
			t.Fatalf("zoom in %d -> %d", cur, zr.Level)
		}
		cur = zr.Level
	}
	if cur != int32(backend.Levels()) {
		t.Fatalf("finest reachable level %d, want %d", cur, backend.Levels())
	}
	if got, want := canonClusters(c.rpc(&Request{Op: OpViewClusters, View: open.View}).Clusters),
		canonClusters(backend.Clusters(int(cur))); got != want {
		t.Fatalf("view clusters:\n got %s\n want %s", got, want)
	}
	if got, want := c.rpc(&Request{Op: OpViewClusterOf, View: open.View, Node: 4}).Members,
		backend.ClusterOf(4, int(cur)); !reflect.DeepEqual(got, want) {
		t.Fatalf("view clusterOf: %v, want %v", got, want)
	}
	c.rpc(&Request{Op: OpViewClose, View: open.View})
	if resp := c.rpcAllowErr(&Request{Op: OpViewClusters, View: open.View}); resp.Err == nil ||
		resp.Err.Code != ErrCodeBadRequest {
		t.Fatalf("closed view answered: %+v", resp)
	}
}

// TestServerAnalytics drives the analytics ops over TCP and checks every
// reply against the backend queried directly: global-only and per-cluster
// TieRank, the k validation, and the idempotent evolution cursor read.
func TestServerAnalytics(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	for _, b := range testStream(4, 25) {
		c.rpc(&Request{Op: OpActivateBatch, Batch: b})
	}

	level := backend.SqrtLevel()
	if got, want := c.rpc(&Request{Op: OpTieRank, Level: int32(level), K: 5}).Rank,
		backend.TieRank(level, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("tierank(level=%d):\n got  %+v\n want %+v", level, got, want)
	}
	if got, want := c.rpc(&Request{Op: OpTieRank, Level: -1, K: 3}).Rank,
		backend.TieRank(-1, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("tierank(global):\n got  %+v\n want %+v", got, want)
	}
	if resp := c.rpcAllowErr(&Request{Op: OpTieRank, Level: -1, K: 0}); resp.Err == nil ||
		resp.Err.Code != ErrCodeBadRequest {
		t.Fatalf("tierank k=0 answered: %+v", resp)
	}

	wantEvs, wantSeq, wantDropped := backend.Evolution(0)
	resp := c.rpc(&Request{Op: OpEvolution})
	if !reflect.DeepEqual(resp.Evo, wantEvs) || resp.Seq != wantSeq || resp.Dropped != wantDropped {
		t.Fatalf("evolution:\n got  %v seq=%d dropped=%d\n want %v seq=%d dropped=%d",
			resp.Evo, resp.Seq, resp.Dropped, wantEvs, wantSeq, wantDropped)
	}
	// The read is non-draining: the same cursor returns the same events.
	again := c.rpc(&Request{Op: OpEvolution})
	if !reflect.DeepEqual(again.Evo, resp.Evo) || again.Seq != resp.Seq {
		t.Fatalf("evolution re-read differs: %v vs %v", again.Evo, resp.Evo)
	}
	// Reading from the newest sequence number returns nothing new.
	if tail := c.rpc(&Request{Op: OpEvolution, From: resp.Seq}); len(tail.Evo) != 0 {
		t.Fatalf("evolution from seq %d returned %d events", resp.Seq, len(tail.Evo))
	}
}

// TestServerRejectsBadBatch checks that a batch violating the ingest
// contract produces ErrCodeRejected and leaves the connection usable.
func TestServerRejectsBadBatch(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	// (0, 9) is not an edge of the barbell.
	resp := c.rpcAllowErr(&Request{Op: OpActivateBatch, Batch: []anc.Activation{{U: 0, V: 9, T: 1}}})
	if resp.Err == nil || resp.Err.Code != ErrCodeRejected {
		t.Fatalf("bad batch: %+v", resp)
	}
	// The connection survives and the network is untouched.
	if st := c.rpc(&Request{Op: OpStats}).Stats; st.Activations != 0 {
		t.Fatalf("rejected batch applied: %d activations", st.Activations)
	}
}

// TestServerBadFrame checks that a CRC-corrupt frame gets a typed
// ErrCodeBadFrame reply and then the connection closes.
func TestServerBadFrame(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	payload := EncodeRequest(&Request{Op: OpStats, ID: 1})
	var buf bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&buf), payload); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x01
	if _, err := c.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	resp := c.recv(OpStats)
	if resp.Err == nil || resp.Err.Code != ErrCodeBadFrame {
		t.Fatalf("corrupt frame: %+v", resp)
	}
	c.expectClosed()
}

// TestServerFrameTooBig checks that an oversized announced length gets a
// typed ErrCodeFrameTooBig reply and then the connection closes.
func TestServerFrameTooBig(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{MaxFrame: 1024})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<20)
	if _, err := c.conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := c.recv(OpStats)
	if resp.Err == nil || resp.Err.Code != ErrCodeFrameTooBig {
		t.Fatalf("oversized frame: %+v", resp)
	}
	c.expectClosed()
}

// TestServerBadRequest checks that an intact frame with a garbage body
// gets ErrCodeBadRequest and the connection keeps working.
func TestServerBadRequest(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	c.send([]byte{0xEE}) // unknown op, truncated header
	resp := c.recv(OpStats)
	if resp.Err == nil || resp.Err.Code != ErrCodeBadRequest {
		t.Fatalf("garbage request: %+v", resp)
	}
	// Framing stayed in sync: a real request still works.
	if st := c.rpc(&Request{Op: OpStats}).Stats; st.Nodes != 10 {
		t.Fatalf("stats after bad request: %+v", st)
	}
}

// slowBackend delays or blocks chosen queries to force deadline and
// overload paths deterministically.
type slowBackend struct {
	Backend
	block chan struct{} // Clusters waits for this channel to close
}

func (b *slowBackend) Clusters(level int) [][]int {
	<-b.block
	return b.Backend.Clusters(level)
}

// TestServerDeadline checks that a query overrunning the request deadline
// gets ErrCodeDeadline instead of hanging the connection.
func TestServerDeadline(t *testing.T) {
	block := make(chan struct{})
	backend := &slowBackend{Backend: anc.NewConcurrent(testNetwork(t)), block: block}
	s := startServer(t, backend, Config{RequestTimeout: 50 * time.Millisecond})
	c := dialTest(t, s.Addr().String())

	resp := c.rpcAllowErr(&Request{Op: OpClusters, Level: 2})
	if resp.Err == nil || resp.Err.Code != ErrCodeDeadline {
		t.Fatalf("slow query: %+v", resp)
	}
	// The connection survives: a fast op still answers.
	if st := c.rpc(&Request{Op: OpStats}).Stats; st.Nodes != 10 {
		t.Fatalf("stats after deadline: %+v", st)
	}
	close(block) // release the runaway query before shutdown
	shutdownServer(t, s)
}

// TestServerOverloaded checks that when every admission slot is held past
// the deadline, the next request is refused with ErrCodeOverloaded.
func TestServerOverloaded(t *testing.T) {
	block := make(chan struct{})
	backend := &slowBackend{Backend: anc.NewConcurrent(testNetwork(t)), block: block}
	s := startServer(t, backend, Config{MaxInflight: 1, RequestTimeout: 200 * time.Millisecond})
	c1 := dialTest(t, s.Addr().String())
	c2 := dialTest(t, s.Addr().String())

	// c1's query takes the only slot and blocks past its deadline (the
	// slot is released only when the query finishes, so the runaway query
	// keeps counting against MaxInflight).
	done := make(chan *Response, 1)
	go func() {
		done <- c1.rpcAllowErr(&Request{Op: OpClusters, Level: 2})
	}()
	// Wait until the slot is actually held before contending for it.
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("first query never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	resp := c2.rpcAllowErr(&Request{Op: OpStats})
	if resp.Err == nil || resp.Err.Code != ErrCodeOverloaded {
		t.Fatalf("second query: %+v", resp)
	}
	if resp := <-done; resp.Err == nil || resp.Err.Code != ErrCodeDeadline {
		t.Fatalf("first query: %+v", resp)
	}
	close(block)
	shutdownServer(t, s)
}

// TestHandleWhileDraining checks the typed ShuttingDown reply a request
// receives once the drain has begun.
func TestHandleWhileDraining(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := New(backend, Config{})
	s.draining.Store(true)
	payload, _ := s.handle(&connState{views: map[uint32]int{}}, &Request{Op: OpStats, ID: 7})
	resp, err := DecodeResponse(OpStats, payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Err == nil || resp.Err.Code != ErrCodeShuttingDown {
		t.Fatalf("draining reply: %+v", resp)
	}
}

// blockingIngest blocks ingest until released, so a drain can be
// started with batches provably still in flight and queued.
type blockingIngest struct {
	Backend
	gate chan struct{}
}

func (b *blockingIngest) ActivateBatchTraced(batch []anc.Activation, sp trace.SpanHandle) error {
	<-b.gate
	return b.Backend.ActivateBatchTraced(batch, sp)
}

// TestServerDrainFlushesQueue checks the graceful-drain contract: batches
// accepted into the queue before Shutdown are committed and acknowledged,
// the drain never hangs, and afterwards the port is closed.
func TestServerDrainFlushesQueue(t *testing.T) {
	gate := make(chan struct{})
	inner := anc.NewConcurrent(testNetwork(t))
	backend := &blockingIngest{Backend: inner, gate: gate}
	s := startServer(t, backend, Config{RequestTimeout: 30 * time.Second})
	c1 := dialTest(t, s.Addr().String())
	c2 := dialTest(t, s.Addr().String())

	batches := testStream(2, 10)
	// Requests on one connection are handled sequentially, so the two
	// batches come from two connections: the first blocks in the writer,
	// the second sits in the ingest queue.
	c1.send(EncodeRequest(&Request{Op: OpActivateBatch, ID: 1, Batch: batches[0]}))
	for i := 0; s.inflight.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("first batch never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	c2.send(EncodeRequest(&Request{Op: OpActivateBatch, ID: 2, Batch: batches[1]}))
	for i := 0; s.queued.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("second batch never queued")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for i := 0; !s.draining.Load(); i++ {
		if i > 1000 {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // release the writer mid-drain

	// Both batches were accepted before the drain began, so both must be
	// committed and acknowledged.
	for i, c := range []*testClient{c1, c2} {
		resp := c.recv(OpActivateBatch)
		if resp.Err != nil {
			t.Fatalf("batch %d during drain: %v", i, resp.Err)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := inner.Stats().Activations; got != 20 {
		t.Fatalf("%d activations applied, want 20", got)
	}
	if _, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServeRecoverDeterminism is the crash-recovery proof at test scale: a
// served ingest stream killed mid-way and recovered through the WAL must
// end at exactly the clustering of an uninterrupted in-process run.
func TestServeRecoverDeterminism(t *testing.T) {
	batches := testStream(12, 20)

	// Uninterrupted in-process reference.
	ref := testNetwork(t)
	for _, b := range batches {
		if err := ref.ActivateBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join(t.TempDir(), "wal")
	d, err := anc.NewDurable(testNetwork(t), dir, anc.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, d, Config{})
	c := dialTest(t, s.Addr().String())
	const k = 7 // crash after this many acknowledged batches
	for _, b := range batches[:k] {
		c.rpc(&Request{Op: OpActivateBatch, Batch: b})
	}
	s.Kill() // crash-style: no checkpoint; recovery must replay the WAL
	c.expectClosed()

	rec, err := anc.Recover(dir, anc.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Activations; got != uint64(k*20) {
		t.Fatalf("recovered %d activations, want %d", got, k*20)
	}
	s2 := startServer(t, rec, Config{})
	c2 := dialTest(t, s2.Addr().String())
	for _, b := range batches[k:] {
		c2.rpc(&Request{Op: OpActivateBatch, Batch: b})
	}
	level := ref.SqrtLevel()
	got := canonClusters(c2.rpc(&Request{Op: OpClusters, Level: int32(level)}).Clusters)
	want := canonClusters(ref.Clusters(level))
	if got != want {
		t.Fatalf("post-recovery clusters differ:\n got %s\n want %s", got, want)
	}
	shutdownServer(t, s2)
}

// TestServerHandshakeRejectsBadMagic checks that a client with the wrong
// magic is cut off at the preamble.
func TestServerHandshakeRejectsBadMagic(t *testing.T) {
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{})
	defer shutdownServer(t, s)

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("NOPE\x01\x00\x00\x00")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
}
