package client

import (
	"bufio"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anc"
	"anc/internal/gen"
	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/serve"
)

// scriptServer is a hand-rolled wire-protocol endpoint whose behavior per
// request is scripted by the test: reply bytes, or nil to slam the
// connection shut — a flaky listener.
type scriptServer struct {
	lis   net.Listener
	conns atomic.Int32
	reqs  atomic.Int32
	// script maps (connection number, request) to a reply payload; nil
	// closes the connection instead — the flake.
	script func(connNum int, req *serve.Request) []byte
}

func startScriptServer(t *testing.T, script func(connNum int, req *serve.Request) []byte) *scriptServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptServer{lis: lis, script: script}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			n := int(s.conns.Add(1))
			go s.serve(conn, n)
		}
	}()
	return s
}

func (s *scriptServer) serve(conn net.Conn, connNum int) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	if err := serve.WritePreamble(conn); err != nil {
		return
	}
	if err := serve.ReadPreamble(br); err != nil {
		return
	}
	for {
		payload, err := serve.ReadFrame(br, serve.DefaultMaxFrame)
		if err != nil {
			return
		}
		req, err := serve.DecodeRequest(payload)
		if err != nil {
			return
		}
		s.reqs.Add(1)
		reply := s.script(connNum, req)
		if reply == nil {
			return // flake: cut the connection instead of answering
		}
		if err := serve.WriteFrame(bw, reply); err != nil {
			return
		}
	}
}

func statsReply(req *serve.Request) []byte {
	return serve.EncodeResponse(serve.OpStats, &serve.Response{
		ID: req.ID, Stats: serve.StatsReply{Nodes: 10, Edges: 21},
	})
}

// TestRetryQueryFlakyListener: the listener kills the first two
// connections mid-call; a retrying client's query must ride through the
// flakes, redialing each time, and succeed on the third connection.
func TestRetryQueryFlakyListener(t *testing.T) {
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		if connNum <= 2 {
			return nil
		}
		return statsReply(req)
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(5, time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("retrying query failed: %v", err)
	}
	if stats.Nodes != 10 {
		t.Fatalf("stats %+v", stats)
	}
	if n := s.conns.Load(); n != 3 {
		t.Fatalf("server saw %d connections, want 3 (two flakes + success)", n)
	}
}

// TestRetryOverloaded: the server's typed overloaded reply is an explicit
// ask-again; a retrying client honors it without redialing.
func TestRetryOverloaded(t *testing.T) {
	var served atomic.Int32
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		if served.Add(1) <= 2 {
			return serve.EncodeError(req.ID, serve.ErrCodeOverloaded, "queue full")
		}
		return statsReply(req)
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(5, time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("overloaded retries failed: %v", err)
	}
	if n := s.conns.Load(); n != 1 {
		t.Fatalf("typed overloaded reply caused %d redials", n-1)
	}
	if n := s.reqs.Load(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
}

// TestRetryRespectsTypedRejection: a final typed error (bad request) is
// never retried, even with retries configured.
func TestRetryRespectsTypedRejection(t *testing.T) {
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		return serve.EncodeError(req.ID, serve.ErrCodeBadRequest, "no")
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(5, time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stats(context.Background())
	we, ok := err.(*serve.WireError)
	if !ok || we.Code != serve.ErrCodeBadRequest {
		t.Fatalf("err %v, want typed bad-request", err)
	}
	if n := s.reqs.Load(); n != 1 {
		t.Fatalf("typed rejection was retried: %d requests", n)
	}
}

// TestIngestNeverRetried: a write whose reply is lost may have been
// applied — the client must surface the transport error, not resend the
// batch, no matter the retry configuration.
func TestIngestNeverRetried(t *testing.T) {
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		return nil // every ingest connection dies before answering
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(5, time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.ActivateBatch(context.Background(), []anc.Activation{{U: 0, V: 1, T: 1}})
	if err == nil {
		t.Fatal("lost ingest reply did not surface an error")
	}
	if n := s.reqs.Load(); n != 1 {
		t.Fatalf("ingest was resent: server saw %d requests", n)
	}
	if n := s.conns.Load(); n != 1 {
		t.Fatalf("ingest failure redialed: %d connections", n)
	}
}

// TestRetryContextCancel: a canceled context stops the retry loop
// promptly instead of burning the remaining attempts.
func TestRetryContextCancel(t *testing.T) {
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		return nil
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(10, 50*time.Millisecond, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("flaky query succeeded impossibly")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored cancellation for %v", elapsed)
	}
}

// startReal serves a 16-node ring from a real serve.Server with metrics on;
// cfg adds the rest of the server's configuration (e.g. a label table).
func startReal(t *testing.T, cfg serve.Config) (*Client, *obs.Registry) {
	t.Helper()
	var ring [][2]int
	for i := 0; i < 16; i++ {
		ring = append(ring, [2]int{i, (i + 1) % 16})
	}
	nw, err := anc.NewNetwork(16, ring, anc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	s := serve.New(anc.NewConcurrent(nw), cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

// TestViewIsClientSide: a View opens at the server's √n level, zooms
// within [1, Levels] exactly as the server-side sessions it replaces did
// (moved and one level per step inside, false and unchanged at either
// end), reads what the plain Clusters/ClusterOf ops answer at its level —
// in file labels when the server has a label table — and keeps working
// after the client's connection is closed.
func TestViewIsClientSide(t *testing.T) {
	labels := map[int64]int32{}
	for v := int32(0); v < 16; v++ {
		labels[1000+7*int64(v)] = v
	}
	for name, cfg := range map[string]serve.Config{"dense": {}, "labels": {Labels: labels}} {
		t.Run(name, func(t *testing.T) {
			c, _ := startReal(t, cfg)
			ctx := context.Background()
			nodes := []int{0, 5, 15}
			if cfg.Labels != nil {
				nodes = []int{1000, 1035, 1105}
			}
			st, err := c.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			v, err := c.OpenView(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if v.Level() != int(st.SqrtLevel) {
				t.Fatalf("view opened at %d, want SqrtLevel %d", v.Level(), st.SqrtLevel)
			}
			// reads checks the view against the plain ops at its level.
			reads := func() {
				t.Helper()
				got, err := v.Clusters(ctx)
				want, werr := c.Clusters(ctx, v.Level())
				if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("level %d: view clusters %v (%v), Clusters %v (%v)", v.Level(), got, err, want, werr)
				}
				for _, x := range nodes {
					got, err := v.ClusterOf(ctx, x)
					want, werr := c.ClusterOf(ctx, x, v.Level())
					if err != nil || werr != nil || len(got) == 0 || !reflect.DeepEqual(got, want) {
						t.Fatalf("level %d: view ClusterOf(%d) %v (%v), ClusterOf %v (%v)", v.Level(), x, got, err, want, werr)
					}
				}
			}
			// zoom steps until the view stops, checking every move.
			zoom := func(step func(context.Context) (bool, error), delta int) {
				t.Helper()
				for {
					before := v.Level()
					moved, err := step(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !moved {
						if v.Level() != before {
							t.Fatalf("refused zoom moved the level %d -> %d", before, v.Level())
						}
						return
					}
					if v.Level() != before+delta {
						t.Fatalf("zoom by %d moved the level %d -> %d", delta, before, v.Level())
					}
					reads()
				}
			}
			reads()
			zoom(v.ZoomIn, +1)
			if v.Level() != int(st.Levels) {
				t.Fatalf("finest reachable level %d, want %d", v.Level(), st.Levels)
			}
			zoom(v.ZoomOut, -1)
			if v.Level() != 1 {
				t.Fatalf("coarsest reachable level %d, want 1", v.Level())
			}
			// The level outlives the connection: the next read redials.
			c.Close()
			if moved, err := v.ZoomIn(ctx); err != nil || !moved || v.Level() != 2 {
				t.Fatalf("zoom after Close: moved=%v level=%d err=%v", moved, v.Level(), err)
			}
			reads()
		})
	}
}

// TestEveryOpHasAClientMethod calls every exported Client, View and Watch
// method that takes a context, then requires every pre-registered
// anc_serve_requests_total{op} series to have moved: an op added to the
// wire's table without a client method stays at 0. A typed server reply
// (replication and tracing are off) still proves the round trip.
func TestEveryOpHasAClientMethod(t *testing.T) {
	c, reg := startReal(t, serve.Config{})
	ctx := reflect.ValueOf(context.Background())
	v, err := c.OpenView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.OpenWatch(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, recv := range []reflect.Value{reflect.ValueOf(c), reflect.ValueOf(v), reflect.ValueOf(w)} {
		for i := 0; i < recv.NumMethod(); i++ {
			m := recv.Method(i).Type()
			if m.NumIn() == 0 || m.In(0) != reflect.TypeOf((*context.Context)(nil)).Elem() {
				continue
			}
			args := []reflect.Value{ctx}
			for j := 1; j < m.NumIn(); j++ {
				args = append(args, reflect.Zero(m.In(j)))
			}
			call := recv.Method(i).Call
			if m.IsVariadic() {
				call = recv.Method(i).CallSlice
			}
			out := call(args)
			var we *serve.WireError
			if err, _ := out[len(out)-1].Interface().(error); err != nil && !errors.As(err, &we) {
				t.Errorf("%s: %v", recv.Type().Method(i).Name, err)
			}
		}
	}
	// The two push-only stream payloads are never requests; repl-subscribe
	// is the one real exemption — repl.Node is its only caller.
	exempt := map[string]bool{"repl-frames": true, "repl-snapshot": true, "repl-subscribe": true}
	for key, n := range reg.Snapshot() {
		name, ok := strings.CutPrefix(key, `anc_serve_requests_total{op="`)
		if name = strings.TrimSuffix(name, `"}`); ok && n == 0 && !exempt[name] {
			t.Errorf("op %s: no client method sent it", name)
		}
		delete(exempt, name)
	}
	if len(exempt) != 0 {
		t.Fatalf("exempt ops %v are not among the registered per-op series", exempt)
	}
}

// TestWatchesDoNotShareEvents: two clients watch overlapping node sets and
// poll in interleaved order while ingest flips votes; each receives every
// event on its own nodes — exactly what the served network's feed holds
// for that set — and neither takes events from the other.
func TestWatchesDoNotShareEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.PlantedPartition([]int{20, 20, 20, 20}, 0.3, 0.03, rng).Graph
	nw, err := anc.FromGraph(g, anc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	backend := anc.NewConcurrent(nw)
	defer backend.Close()
	s := serve.New(backend, serve.Config{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	ctx := context.Background()
	var setA, setB []int
	for v := 0; v < 40; v++ {
		setA, setB = append(setA, v), append(setB, v+20) // 20..39 in both
	}
	type watcher struct {
		w      *Watch
		nodes  []int
		events []anc.ClusterEvent
	}
	var ws []*watcher
	for _, nodes := range [][]int{setA, setB} {
		c, err := Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w, err := c.OpenWatch(ctx, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, &watcher{w: w, nodes: nodes})
	}
	start := ws[0].w.Seq()
	poll := func(x *watcher) {
		evs, missed, err := x.w.Poll(ctx)
		if err != nil || missed != 0 {
			t.Fatalf("poll: %v, %d missed", err, missed)
		}
		x.events = append(x.events, evs...)
	}
	ingest, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ingest.Close()
	now := 0.0
	for round := 0; round < 60; round++ {
		batch := make([]anc.Activation, 32)
		for i := range batch {
			now += 0.05
			u, v := g.Endpoints(graph.EdgeID(rng.Intn(g.M())))
			batch[i] = anc.Activation{U: int(u), V: int(v), T: now}
		}
		if err := ingest.ActivateBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		poll(ws[round%2]) // A, B, A, B, …
		if round%7 == 0 {
			poll(ws[1])
			poll(ws[0]) // and now and then B before A
		}
	}
	shared := 0
	for _, x := range ws {
		poll(x)
		want, _, _ := backend.Events(start, x.nodes)
		if len(want) == 0 || !reflect.DeepEqual(x.events, want) {
			t.Fatalf("watch on %d..%d collected %d events, the feed holds %d", x.nodes[0], x.nodes[len(x.nodes)-1], len(x.events), len(want))
		}
		for _, e := range x.events {
			if e.Node >= 20 && e.Node < 40 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no event on the shared nodes: the overlap was never exercised")
	}
}

// TestWatchDetectsRestart: a reply whose sequence number is below the
// watch's cursor means the server restarted. Poll reports it as
// ErrRestarted — never as an empty poll — and continues from the
// restarted server's sequence.
func TestWatchDetectsRestart(t *testing.T) {
	var mu sync.Mutex
	var froms []uint64
	s := startScriptServer(t, func(connNum int, req *serve.Request) []byte {
		if req.Op != serve.OpEvents {
			return statsReply(req)
		}
		mu.Lock()
		defer mu.Unlock()
		froms = append(froms, req.From)
		seq := uint64(100) // the first server's newest flip
		switch {
		case connNum == 1 && len(froms) == 3:
			return nil // the first server goes away
		case connNum == 1 && len(froms) == 2:
			seq = 120
		case connNum > 1:
			seq = 3 + uint64(len(froms)) // the restarted server counts from 0 again
		}
		return serve.EncodeResponse(serve.OpEvents, &serve.Response{ID: req.ID, Seq: seq,
			Events: []anc.ClusterEvent{{Node: 7, Other: 1, Level: 1, Joined: true, Time: float64(seq)}}})
	})
	c, err := Dial(s.lis.Addr().String(), WithRetry(3, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	w, err := c.OpenWatch(ctx, 7)
	if err != nil || w.Seq() != 100 {
		t.Fatalf("open: seq %d, %v", w.Seq(), err)
	}
	if evs, _, err := w.Poll(ctx); err != nil || len(evs) != 1 || w.Seq() != 120 {
		t.Fatalf("poll before the restart: %v, %v, seq %d", evs, err, w.Seq())
	}
	if evs, _, err := w.Poll(ctx); !errors.Is(err, ErrRestarted) || evs != nil || w.Seq() != 7 {
		t.Fatalf("poll across the restart: %v, %v, seq %d; want ErrRestarted at seq 7", evs, err, w.Seq())
	}
	if evs, _, err := w.Poll(ctx); err != nil || len(evs) != 1 || evs[0].Node != 7 || w.Seq() != 8 {
		t.Fatalf("poll after the restart: %v, %v, seq %d", evs, err, w.Seq())
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{math.MaxUint64, 100, 120, 120, 7}; !reflect.DeepEqual(froms, want) {
		t.Fatalf("cursors sent %v, want %v", froms, want)
	}
}
