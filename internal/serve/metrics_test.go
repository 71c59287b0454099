package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"anc"
	"anc/internal/obs"
)

// scrape fetches a path from the server's metrics listener with a
// dedicated transport so the leak tests never count stray keep-alive
// goroutines against the server.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestServerMetricsRoundTrip drives real traffic — ingest, queries and
// one malformed request — and checks that the per-op counters, error
// counters, latency histograms and the /metrics and /healthz endpoints
// all tell the same story.
func TestServerMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	backend := anc.NewConcurrent(testNetwork(t))
	s := startServer(t, backend, Config{Obs: reg, MetricsAddr: "127.0.0.1:0"})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	batches := testStream(3, 25)
	for _, b := range batches {
		c.rpc(&Request{Op: OpActivateBatch, Batch: b})
	}
	c.rpc(&Request{Op: OpStats})
	c.rpc(&Request{Op: OpStats})

	// A garbage frame is an error reply minted before any op is known: it
	// must count as an error, not as a request.
	c.send([]byte{0xEE})
	if resp := c.recv(OpStats); resp.Err == nil || resp.Err.Code != ErrCodeBadRequest {
		t.Fatalf("garbage request: %+v", resp)
	}

	snap := reg.Snapshot()
	want := map[string]float64{
		`anc_serve_requests_total{op="activate-batch"}`: 3,
		`anc_serve_requests_total{op="stats"}`:          2,
		`anc_serve_errors_total{code="bad-request"}`:    1,
		"anc_serve_ingest_seconds_count":                3,
		"anc_serve_query_seconds_count":                 2,
		"anc_serve_connections":                         1,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %g, want %g", k, snap[k], v)
		}
	}
	for _, k := range []string{"anc_serve_read_bytes_total", "anc_serve_written_bytes_total"} {
		if snap[k] <= 0 {
			t.Errorf("%s = %g, want > 0", k, snap[k])
		}
	}
	// Pre-resolved op children exist at zero from the first scrape, so
	// dashboards see every series before traffic arrives.
	if v, ok := snap[`anc_serve_requests_total{op="events"}`]; !ok || v != 0 {
		t.Errorf("events series = %g (present %v), want 0 at rest", v, ok)
	}

	body := scrape(t, s.MetricsAddr(), "/metrics")
	for _, line := range []string{
		`anc_serve_requests_total{op="activate-batch"} 3`,
		"# TYPE anc_serve_ingest_seconds histogram",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	var health struct {
		Status      string
		Nodes       int
		Activations uint64
	}
	if err := json.Unmarshal([]byte(scrape(t, s.MetricsAddr(), "/healthz")), &health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if health.Status != "ok" || health.Nodes != 10 || health.Activations != 75 {
		t.Fatalf("healthz = %+v, want ok/10 nodes/75 activations", health)
	}
}

// TestSlowQueryCounterAndRateLimit: with a threshold every request beats,
// the counter counts all of them but the log emits one line per second.
func TestSlowQueryCounterAndRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	backend := anc.NewConcurrent(testNetwork(t))
	var mu sync.Mutex
	var lines []string
	s := startServer(t, backend, Config{
		Obs:       reg,
		SlowQuery: time.Nanosecond,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	defer shutdownServer(t, s)
	c := dialTest(t, s.Addr().String())

	for i := 0; i < 5; i++ {
		c.rpc(&Request{Op: OpStats})
	}
	if got := reg.Snapshot()["anc_serve_slow_requests_total"]; got != 5 {
		t.Fatalf("slow_requests_total = %g, want 5", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-query log lines = %d, want 1 (rate-limited): %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "op=stats") {
		t.Fatalf("slow-query line %q missing op name", lines[0])
	}
}

// TestMetricsListenerStops: both teardown paths must close the metrics
// HTTP listener and reap its goroutines — the serving socket going away
// while /metrics stays up would leak a goroutine per restart cycle.
func TestMetricsListenerStops(t *testing.T) {
	for _, mode := range []string{"shutdown", "kill"} {
		t.Run(mode, func(t *testing.T) {
			before := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			backend := anc.NewConcurrent(testNetwork(t))
			s := startServer(t, backend, Config{Obs: reg, MetricsAddr: "127.0.0.1:0"})
			maddr := s.MetricsAddr()
			if maddr == "" {
				t.Fatal("metrics listener did not start")
			}
			scrape(t, maddr, "/metrics")
			if mode == "kill" {
				s.Kill()
			} else {
				shutdownServer(t, s)
			}
			if conn, err := net.DialTimeout("tcp", maddr, time.Second); err == nil {
				conn.Close()
				t.Fatal("metrics listener still accepting after teardown")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines leaked: %d before, %d after %s", before, after, mode)
			}
		})
	}
}
