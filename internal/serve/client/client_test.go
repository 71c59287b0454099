package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anc"
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

// startReal serves a 16-node ring from a real serve.Server with metrics on.
func startReal(t *testing.T) (*Client, *obs.Registry) {
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
	s := serve.New(anc.NewConcurrent(nw), serve.Config{Obs: reg})
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

// TestStaleViewFailsTyped: view IDs restart at 1 on every connection, so a
// view that outlived its connection would alias whichever view the new
// connection opens next. It must fail typed, before the wire, and leave
// that other session alone.
func TestStaleViewFailsTyped(t *testing.T) {
	c, _ := startReal(t)
	ctx := context.Background()
	v1, err1 := c.OpenView(ctx)
	c.Close()
	v2, err2 := c.OpenView(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if moved, err := v1.ZoomIn(ctx); !errors.Is(err, ErrViewLost) || moved {
		t.Fatalf("stale view zoomed: moved=%v err=%v, want ErrViewLost", moved, err)
	}
	start := v2.Level()
	if moved, err := v2.ZoomOut(ctx); err != nil || !moved || v2.Level() != start-1 {
		t.Fatalf("v2 zoom-out from %d: moved=%v level=%d err=%v; the stale view moved it", start, moved, v2.Level(), err)
	}
}

// TestEveryOpHasAClientMethod calls every exported Client and View method
// that takes a context, then requires every pre-registered
// anc_serve_requests_total{op} series to have moved: an op added to the
// wire's table without a client method stays at 0. A typed server reply
// (replication and tracing are off) still proves the round trip.
func TestEveryOpHasAClientMethod(t *testing.T) {
	c, reg := startReal(t)
	ctx := reflect.ValueOf(context.Background())
	v, err := c.OpenView(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, recv := range []reflect.Value{reflect.ValueOf(c), reflect.ValueOf(v)} {
		for i := 0; i < recv.NumMethod(); i++ {
			m := recv.Method(i).Type()
			if m.NumIn() == 0 || m.In(0) != reflect.TypeOf((*context.Context)(nil)).Elem() {
				continue
			}
			args := []reflect.Value{ctx}
			for j := 1; j < m.NumIn(); j++ {
				args = append(args, reflect.Zero(m.In(j)))
			}
			out := recv.Method(i).Call(args)
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
