package anc_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"anc"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

// spanOps flattens a span tree into the set of operation names it
// contains.
func spanOps(v *trace.SpanView, into map[string]bool) {
	if v == nil {
		return
	}
	into[v.Op] = true
	for _, c := range v.Children {
		spanOps(c, into)
	}
}

// TestTraceSmoke is the tracing subsystem's acceptance loop (DESIGN.md
// §17): a traced client sends one batch over TCP and the server's flight
// recorder must hold a single trace — under the client-minted trace ID —
// that stitches every ingest stage: admission, writer-queue wait, WAL
// append with the fsync inside it, core apply, pyramid repair, cache
// invalidation and the reply write. The same trace must then come back
// over the wire through the traces op (text and JSON), and an untraced
// connection against the same server must keep working unchanged.
func TestTraceSmoke(t *testing.T) {
	var edges [][2]int
	for base := 0; base <= 5; base += 5 {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	edges = append(edges, [2]int{4, 5})
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.2
	cfg.Mu = 3
	net, err := anc.NewNetwork(10, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := anc.NewDurable(net, t.TempDir(), anc.DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// SampleEvery is huge so the server head-samples nothing of its own:
	// every recorded trace below must have arrived through a wire context.
	serverTracer := trace.New(trace.Config{Capacity: 64, SampleEvery: 1 << 20})
	srv := serve.New(d, serve.Config{Tracer: serverTracer, RequestTimeout: 30 * time.Second})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	ctx := context.Background()

	// The traced client samples every call, so the one batch below is
	// guaranteed a client-side root span whose context rides the request.
	clientTracer := trace.New(trace.Config{Capacity: 16, SampleEvery: 1})
	c, err := client.Dial(addr, client.WithTimeout(30*time.Second), client.WithTracer(clientTracer))
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]anc.Activation, 0, 30)
	ts := 0.0
	for j := 0; j < 30; j++ {
		e := edges[j*7%len(edges)]
		ts += 0.5
		batch = append(batch, anc.Activation{U: e[0], V: e[1], T: ts})
	}
	if err := c.ActivateBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}

	// The client's recorder names the trace the server must have joined.
	var id uint64
	for _, v := range clientTracer.Traces() {
		if v.Root != nil && v.Root.Op == "client.activate-batch" {
			if id, err = trace.ParseID(v.ID); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if id == 0 {
		t.Fatal("client recorded no activate-batch trace")
	}

	// The server's root span ends just after the reply is flushed, so the
	// client can observe its response a beat before the trace files.
	var sv *trace.TraceView
	for deadline := time.Now().Add(5 * time.Second); sv == nil; {
		if sv = serverTracer.Find(id); sv != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server flight recorder never filed trace %s", trace.FormatID(id))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sv.Remote {
		t.Error("server trace not marked remote despite the wire-carried context")
	}
	if sv.Root == nil || sv.Root.Op != "serve.activate-batch" {
		t.Fatalf("server trace root = %+v, want serve.activate-batch", sv.Root)
	}
	ops := map[string]bool{}
	spanOps(sv.Root, ops)
	for _, stage := range []string{
		"queue.wait", "wal.append", "wal.fsync", "core.apply",
		"pyramid.repair", "core.invalidate", "reply",
	} {
		if !ops[stage] {
			t.Errorf("stitched trace missing the %s stage (have %v)", stage, ops)
		}
	}

	// The same trace must round-trip over the wire: the text rendering by
	// ID, and the JSON index listing it.
	text, err := c.Traces(ctx, id, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{trace.FormatID(id), "wal.append", "pyramid.repair"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("traces op text missing %q:\n%s", want, text)
		}
	}
	raw, err := c.Traces(ctx, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Traces []*trace.TraceView `json:"traces"`
	}
	if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatalf("traces op JSON: %v\n%s", err, raw)
	}
	found := false
	for _, v := range index.Traces {
		found = found || v.ID == trace.FormatID(id)
	}
	if !found {
		t.Errorf("traces op index does not list %s", trace.FormatID(id))
	}

	// An untraced connection against the same server must be unaffected:
	// same ops, no trailer, no new server-side traces. The server files a
	// traced request's trace a beat after flushing its reply (see above), so
	// the baseline waits until every traced call so far has been filed.
	traced, _ := clientTracer.Stats()
	finished, _ := serverTracer.Stats()
	for deadline := time.Now().Add(5 * time.Second); finished < traced; finished, _ = serverTracer.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("server filed %d of the client's %d traced calls", finished, traced)
		}
		time.Sleep(2 * time.Millisecond)
	}
	plain, err := client.Dial(addr, client.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ActivateBatch(ctx, []anc.Activation{{U: 0, V: 1, T: ts + 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if now, _ := serverTracer.Stats(); now != finished {
		t.Errorf("untraced requests filed %d new traces, want 0", now-finished)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}
