// Monitor: production-shaped usage — watch specific users for real-time
// cluster-membership changes (the paper's change-reporting Remarks),
// snapshot the network to disk mid-stream, restore it, and continue
// seamlessly.
//
//	go run ./examples/monitor
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"anc"
	"anc/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	pl := gen.Community(400, 2800, 20, 0.15, rng)
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.3
	cfg.Mu = 3
	cfg.Lambda = 0.2
	net, err := anc.FromGraph(pl.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Watch two users from different communities.
	var userA, userB int = -1, -1
	for v, c := range pl.Truth {
		if c == 0 && userA < 0 {
			userA = v
		}
		if c == 1 && userB < 0 {
			userB = v
		}
	}
	net.Watch(userA)
	net.Watch(userB)
	fmt.Printf("watching users %d and %d on a %d-user network\n", userA, userB, net.N())

	// Phase 1: normal in-community traffic.
	stream := gen.CommunityBiasedStream(pl.Graph, pl.Truth, 20, 0.05, 0.9, rng)
	for _, a := range stream {
		u, v := pl.Graph.Endpoints(a.Edge)
		if err := net.Activate(int(u), int(v), a.T); err != nil {
			log.Fatal(err)
		}
	}
	evs, _ := net.DrainEvents()
	report("phase 1 (steady in-community traffic)", evs)

	// Snapshot to a buffer (stands in for a file) and restore.
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot: %d bytes\n", buf.Len())
	restored, err := anc.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	restored.Watch(userA)
	restored.Watch(userB)

	// Phase 2 on the restored network: the two communities start talking.
	churn := gen.ChurnStream(pl.Graph, pl.Truth, 40, 0.08, [2]int32{0, 1}, rng)
	t0 := restored.Now()
	for _, a := range churn {
		u, v := pl.Graph.Endpoints(a.Edge)
		if err := restored.Activate(int(u), int(v), t0+a.T); err != nil {
			log.Fatal(err)
		}
	}
	evs, _ = restored.DrainEvents()
	report("phase 2 (restored network, communities 0 and 1 merging)", evs)

	// Final state: are the watched users in one cluster now?
	level := restored.SqrtLevel()
	together := false
	for _, m := range restored.ClusterOf(userA, level) {
		if m == userB {
			together = true
		}
	}
	fmt.Printf("\nusers %d and %d share a cluster at level %d: %v\n", userA, userB, level, together)
}

func report(phase string, events []anc.ClusterEvent) {
	joins, leaves := 0, 0
	for _, e := range events {
		if e.Joined {
			joins++
		} else {
			leaves++
		}
	}
	fmt.Printf("%s: %d membership changes (%d joins, %d leaves)\n", phase, len(events), joins, leaves)
	for i, e := range events {
		if i == 3 {
			fmt.Printf("  … %d more\n", len(events)-3)
			break
		}
		verb := "left"
		if e.Joined {
			verb = "joined"
		}
		fmt.Printf("  t=%.1f: node %d %s the cluster side of node %d at level %d\n",
			e.Time, e.Node, verb, e.Other, e.Level)
	}
}
