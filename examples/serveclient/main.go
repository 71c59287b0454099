// Serveclient: the serving layer end to end in one process — an
// ancserve-style TCP server over a small activation network on an
// ephemeral port, and the typed client driving it: batched ingest,
// clustering queries, change watching, and a client-side zoom view, all
// over the wire protocol (DESIGN.md §11).
//
//	go run ./examples/serveclient
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"anc"
	"anc/internal/gen"
	"anc/internal/serve"
	"anc/internal/serve/client"
)

func main() {
	// A community-structured network, wrapped for concurrent serving.
	rng := rand.New(rand.NewSource(7))
	pl := gen.Community(300, 2100, 15, 0.12, rng)
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.3
	cfg.Mu = 3
	net, err := anc.FromGraph(pl.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	backend := anc.NewConcurrent(net)
	defer backend.Close()

	// Serve it on an ephemeral loopback port. In production this is
	// `ancserve -addr :7654 -graph g.txt -wal-dir state/`; the in-process
	// server here is the same code path minus the WAL.
	srv := serve.New(backend, serve.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	addr := srv.Addr().String()
	fmt.Printf("serving %d-node network on %s\n", backend.N(), addr)

	c, err := client.Dial(addr, client.WithTimeout(5*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Watch a node — the client holds the cursor and the node set — then
	// ingest in-community traffic as batches: one round trip, one backend
	// lock acquisition, per batch.
	w, err := c.OpenWatch(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	stream := gen.CommunityBiasedStream(pl.Graph, pl.Truth, 12, 0.05, 0.9, rng)
	const per = 64
	for i := 0; i < len(stream); i += per {
		end := i + per
		if end > len(stream) {
			end = len(stream)
		}
		batch := make([]anc.Activation, 0, end-i)
		for _, a := range stream[i:end] {
			u, v := pl.Graph.Endpoints(a.Edge)
			batch = append(batch, anc.Activation{U: int(u), V: int(v), T: a.T})
		}
		if err := c.ActivateBatch(ctx, batch); err != nil {
			log.Fatal(err)
		}
	}

	// Queries over the wire.
	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server state: %d nodes, %d edges, %d activations, t=%.1f\n",
		st.Nodes, st.Edges, st.Activations, st.Now)

	clusters, err := c.EvenClusters(ctx, int(st.SqrtLevel))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("level %d: %d clusters\n", st.SqrtLevel, len(clusters))

	local, err := c.SmallestClusterOf(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smallest cluster of node 0: %d nodes\n", len(local))

	d, err := c.EstimateDistance(ctx, 0, 299)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimated distance(0, 299) = %.3f\n", d)

	// The changes on the watched node since the watch opened: one cursor
	// read, which leaves them in place for any other watcher.
	events, missed, err := w.Poll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 0 saw %d membership changes (%d missed)\n", len(events), missed)

	// A zoom view: the level lives in the client, each read is an
	// ordinary Clusters/ClusterOf call at that level.
	v, err := c.OpenView(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for {
		members, err := v.ClusterOf(ctx, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  view level %d: cluster of 0 has %d nodes\n", v.Level(), len(members))
		moved, err := v.ZoomIn(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if !moved {
			break
		}
	}
	// Graceful drain: queued ingest commits, then the listener closes.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and shut down")
}
