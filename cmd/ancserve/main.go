// Command ancserve serves an activation-network index over TCP: clients
// stream activations in and ask clustering queries through the versioned
// binary protocol of internal/serve (see internal/serve/client for the Go
// client).
//
// The graph file is a whitespace-separated edge list ("u v" per line, #
// comments); an optional -stream file ("u v t" per line) is replayed into
// the index before serving starts. Node IDs on the wire are the graph
// file's original IDs (the serving layer translates them to the dense
// internal ones at its codec boundary); they must fit in uint32.
//
// Usage:
//
//	ancserve -graph g.txt -addr :7465
//	ancserve -graph g.txt -wal-dir state/ -checkpoint-every 100000
//	ancserve -graph g.txt -metrics-addr 127.0.0.1:9100 -slow-query 100ms
//	ancserve -graph g.txt -wal-dir f1/ -follow primary:7465 -promote-on-loss 10s
//
// A durable server (-wal-dir) is automatically a replication primary:
// followers subscribe over the same port and tail its WAL. With -follow
// the server runs as a read-only follower instead — it replicates the
// named primary's frames into its own WAL, serves queries locally, and
// refuses ingest until promoted (via the promote op in anccli, or
// automatically after -promote-on-loss without an upstream).
//
// With -metrics-addr an HTTP listener exposes Prometheus metrics on
// /metrics, a JSON health summary on /healthz and net/http/pprof under
// /debug/pprof/ (see the README's Monitoring section and DESIGN.md §12).
//
// With -wal-dir every served batch is write-ahead logged before it is
// applied and acknowledged; a restart with the same -wal-dir recovers the
// network (checkpoint + WAL tail) instead of rebuilding it. SIGINT or
// SIGTERM triggers a graceful drain: the listener closes, queued batches
// are committed, the network is checkpointed, and only then does the
// process exit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anc"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/repl"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7465", "listen address")
		graphPath  = flag.String("graph", "", "edge-list file (required)")
		streamPath = flag.String("stream", "", "activation stream to replay before serving (u v t per line)")
		method     = flag.String("method", "anco", "anco | ancor | ancf (under ancf the index moves only on an explicit Snapshot, which the server never issues; -checkpoint-every does not move it)")
		lambda     = flag.Float64("lambda", 0.1, "decay factor λ")
		rep        = flag.Int("rep", 7, "initialization reinforcement rounds")
		epsilon    = flag.Float64("epsilon", 0.4, "active-similarity threshold ε")
		mu         = flag.Int("mu", 4, "core threshold μ")
		k          = flag.Int("k", 4, "number of pyramids")
		parallel   = flag.Bool("parallel", false, "repair index partitions concurrently on live updates (index builds use every core regardless)")

		walDir          = flag.String("wal-dir", "", "durability directory (WAL + checkpoints); recovered if it already holds state")
		checkpointEvery = flag.Int("checkpoint-every", 0, "activations between automatic checkpoints (0 = checkpoint only on shutdown)")

		follow        = flag.String("follow", "", "run as a read-only follower replicating from this primary address (requires -wal-dir)")
		promoteOnLoss = flag.Duration("promote-on-loss", 0, "self-promote a follower whose upstream stays unreachable this long (0 = never)")

		maxInflight    = flag.Int("max-inflight", 64, "admission gate: concurrent requests across all connections")
		ingestQueue    = flag.Int("ingest-queue", 64, "bounded ingest queue feeding the single writer (batches)")
		requestTimeout = flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")

		metricsAddr = flag.String("metrics-addr", "", "HTTP listener serving /metrics, /healthz, /debug/traces and /debug/pprof/ (empty = observability off)")
		slowQuery   = flag.Duration("slow-query", 0, "count and log requests slower than this (0 = disabled)")

		traceSample   = flag.Int("trace-sample", 16, "record every Nth request as a trace; 0 disables tracing (client-propagated traces are always honored while enabled)")
		traceCapacity = flag.Int("trace-capacity", 256, "completed traces retained in the flight recorder ring")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "ancserve: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "ancserve: ", log.LstdFlags)

	cfg := anc.DefaultConfig()
	cfg.Lambda = *lambda
	cfg.Rep = *rep
	cfg.Epsilon = *epsilon
	cfg.Mu = *mu
	cfg.K = *k
	cfg.Parallel = *parallel
	switch strings.ToLower(*method) {
	case "anco":
		cfg.Method = anc.ANCO
	case "ancor":
		cfg.Method = anc.ANCOR
	case "ancf":
		cfg.Method = anc.ANCF
	default:
		logger.Fatalf("unknown method %q", *method)
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		logger.Fatal(err)
	}
	net, ids, err := anc.LoadEdgeList(f, cfg)
	f.Close() //anclint:ignore droppederr read-only load; a close error cannot lose data
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("loaded %s: %d nodes, %d edges, %d levels", *graphPath, net.N(), net.M(), net.Levels())

	// One registry spans every layer — WAL, core, pyramid and the server
	// itself — so a single /metrics scrape tells the whole story. Nil when
	// -metrics-addr is unset: every instrumented path then no-ops.
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterRuntimeGauges(reg)
	}

	// The flight recorder: head-sampled spans plus every slow or errored
	// trace, served on /debug/traces and over the wire (anccli trace). Nil
	// when -trace-sample is 0 — every span call then degrades to a no-op.
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{
			Capacity:    *traceCapacity,
			SampleEvery: *traceSample,
			Slow:        *slowQuery,
		})
	}

	if *follow != "" && *walDir == "" {
		logger.Fatal("-follow requires -wal-dir: replicated frames live in the WAL")
	}

	// Build the served backend: durable when -wal-dir is set, otherwise
	// the in-memory concurrency facade.
	var backend serve.Backend
	var replNode *repl.Node
	if *walDir != "" {
		dcfg := anc.DurableConfig{CheckpointEvery: *checkpointEvery, Obs: reg}
		d, err := anc.Recover(*walDir, dcfg)
		switch {
		case err == nil:
			logger.Printf("recovered from %s: t=%v, %d log frames, %d activations replayed past the checkpoint",
				*walDir, d.Now(), d.LoggedActivations(), d.Stats().Activations)
		case errors.Is(err, anc.ErrNoDurableState):
			if d, err = anc.NewDurable(net, *walDir, dcfg); err != nil {
				logger.Fatalf("wal-dir: %v", err)
			}
		default:
			logger.Fatalf("wal-dir: %v", err)
		}
		if *streamPath != "" {
			if *follow != "" {
				logger.Fatal("-stream on a follower: followers are read-only; replay the stream at the primary")
			}
			if err := replayStream(d.ActivateBatch, ids, *streamPath); err != nil {
				logger.Fatalf("stream: %v", err)
			}
		}
		// Every durable backend is a replication node: a primary serves
		// frame subscriptions off its WAL; with -follow it instead tails the
		// named upstream and refuses local ingest until promoted.
		replNode = repl.New(d, repl.Config{
			Upstream:     *follow,
			PromoteAfter: *promoteOnLoss,
			Logf:         logger.Printf,
			Obs:          reg,
			Tracer:       tracer,
		})
		replNode.Start()
		if *follow != "" {
			logger.Printf("following %s (promote-on-loss %v)", *follow, *promoteOnLoss)
		}
		backend = replNode
	}
	var cnet *anc.ConcurrentNetwork
	if backend == nil {
		cnet = anc.NewConcurrent(net)
		cnet.Instrument(reg)
		if *streamPath != "" {
			if err := replayStream(cnet.ActivateBatch, ids, *streamPath); err != nil {
				logger.Fatalf("stream: %v", err)
			}
		}
		backend = cnet
	}

	scfg := serve.Config{
		MaxInflight:    *maxInflight,
		IngestQueue:    *ingestQueue,
		RequestTimeout: *requestTimeout,
		Logf:           logger.Printf,
		Obs:            reg,
		MetricsAddr:    *metricsAddr,
		SlowQuery:      *slowQuery,
		Tracer:         tracer,
		Labels:         ids, // the wire speaks the graph file's IDs
	}
	if replNode != nil {
		scfg.Repl = replNode
	}
	srv := serve.New(backend, scfg)
	if err := srv.Start(*addr); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving on %s (protocol v%d, build %s)", srv.Addr(), serve.Version, obs.BuildVersion)
	if ma := srv.MetricsAddr(); ma != "" {
		logger.Printf("metrics on http://%s/metrics (healthz, pprof alongside)", ma)
	}

	// Graceful drain on SIGINT/SIGTERM: Shutdown stops accepting, flushes
	// the ingest queue through the writer, and checkpoints+closes a
	// durable backend before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Printf("%v: draining (budget %v)", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Fatalf("drain: %v", err)
	}
	if cnet != nil {
		cnet.Close() // the durable case is closed by Shutdown itself
	}
	logger.Printf("drained cleanly")
}

// replayStream feeds "u v t" lines through the batched ingest path in
// chunks, preserving stream order.
func replayStream(activate func([]anc.Activation) error, ids map[int64]int32, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	const chunk = 4096
	batch := make([]anc.Activation, 0, chunk)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := activate(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	line := 0
	var u, v int64
	var t float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		if _, err := fmt.Sscan(s, &u, &v, &t); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		du, ok1 := ids[u]
		dv, ok2 := ids[v]
		if !ok1 || !ok2 {
			return fmt.Errorf("line %d: unknown node", line)
		}
		batch = append(batch, anc.Activation{U: int(du), V: int(dv), T: t})
		if len(batch) == chunk {
			if err := flush(); err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}
