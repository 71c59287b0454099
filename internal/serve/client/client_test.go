package client

import (
	"bufio"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"anc"
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
