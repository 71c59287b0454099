// Follower: WAL-shipping replication end to end in one process — a
// durable primary serving over TCP, a read-only follower tailing its
// WAL and serving the same queries, then a failover: the primary dies
// mid-stream, the follower is promoted and starts accepting writes
// (DESIGN.md §13).
//
// In production the two halves are two ancserve processes:
//
//	ancserve -graph g.txt -wal-dir p/  -addr :7465
//	ancserve -graph g.txt -wal-dir f1/ -addr :7466 -follow host:7465
//
//	go run ./examples/follower
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"anc"
	"anc/internal/gen"
	"anc/internal/serve"
	"anc/internal/serve/client"
	"anc/internal/serve/repl"
)

func main() {
	// A community-structured network; both ends start from the same
	// graph, the same way both ancserve processes load the same file.
	rng := rand.New(rand.NewSource(7))
	pl := gen.Community(300, 2100, 15, 0.12, rng)
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.3
	cfg.Mu = 3

	// Primary: a durable network fronted by a server. The repl.Node
	// wrapper is what serves frame subscriptions off the WAL; the same
	// DurableConfig must be used on both ends — checkpoint cadence is
	// part of the replicated state's byte-identity (DESIGN.md §13).
	dcfg := anc.DurableConfig{CheckpointEvery: 2000}
	primary := startNode(pl, cfg, dcfg, repl.Config{})
	psrv := serve.New(primary, serve.Config{Repl: primary})
	if err := psrv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary on %s\n", psrv.Addr())

	// Follower: same construction plus an upstream. Start launches the
	// replication loop: dial, subscribe from the local log end, apply.
	follower := startNode(pl, cfg, dcfg, repl.Config{
		Upstream:  psrv.Addr().String(),
		Heartbeat: 100 * time.Millisecond,
	})
	follower.Start()
	fsrv := serve.New(follower, serve.Config{Repl: follower})
	if err := fsrv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower on %s\n", fsrv.Addr())

	// Ingest at the primary; the frames replicate as they commit.
	ctx := context.Background()
	pc, err := client.Dial(psrv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	stream := gen.CommunityBiasedStream(pl.Graph, pl.Truth, 12, 0.05, 0.9, rng)
	sent := ingest(ctx, pc, pl, stream)
	fmt.Printf("ingested %d activations at the primary\n", sent)

	// The follower serves the same queries — reads scale out; writes are
	// refused with the typed read-only error until promotion. The client
	// retries idempotent queries (never ingest) through transient flakes.
	fc, err := client.Dial(fsrv.Addr().String(),
		client.WithRetry(4, 25*time.Millisecond, time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer fc.Close()
	for {
		rs, err := fc.ReplStatus(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if rs.LagFrames() == 0 && rs.Next > 0 {
			fmt.Printf("follower caught up: role %s, %d frames applied\n",
				serve.RoleName(rs.Role), rs.Next)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	local, err := fc.SmallestClusterOf(ctx, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica read: smallest cluster of node 0 has %d nodes\n", len(local))
	if err := fc.ActivateBatch(ctx, []anc.Activation{{U: 0, V: 1, T: 999}}); err != nil {
		fmt.Printf("replica write refused as expected: %v\n", err)
	}

	// Failover: the primary dies without a goodbye; the operator (here,
	// us) promotes the follower, which seals its log and accepts writes.
	pc.Close()
	psrv.Kill()
	if err := fc.Promote(ctx); err != nil {
		log.Fatal(err)
	}
	rs, err := fc.ReplStatus(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted: role %s at frame %d\n", serve.RoleName(rs.Role), rs.Next)
	if err := fc.ActivateBatch(ctx, []anc.Activation{{U: 0, V: 1, T: 999}}); err != nil {
		log.Fatal(err)
	}
	st, err := fc.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new primary serving: %d activations, t=%.1f\n", st.Activations, st.Now)

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := fsrv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
}

// startNode builds a durable network in a throwaway directory and wraps
// it in a replication node.
func startNode(pl *gen.Planted, cfg anc.Config, dcfg anc.DurableConfig, rcfg repl.Config) *repl.Node {
	net, err := anc.FromGraph(pl.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "anc-follower-example-")
	if err != nil {
		log.Fatal(err)
	}
	d, err := anc.NewDurable(net, dir, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	return repl.New(d, rcfg)
}

// ingest replays the generated stream as batches over the wire.
func ingest(ctx context.Context, c *client.Client, pl *gen.Planted, stream []gen.Activation) int {
	const per = 64
	sent := 0
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
		sent += len(batch)
	}
	return sent
}
