// Socialstream: simulate a social network whose users chat mostly inside
// their own communities, stream the interactions through the fully online
// ANCO method, and watch a user's local active community respond — the
// scenario the paper's introduction motivates.
//
//	go run ./examples/socialstream
package main

import (
	"fmt"
	"log"
	"math/rand"

	"anc"
	"anc/internal/gen"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// A social graph with planted friend groups: 600 users in ~49
	// communities.
	pl := gen.Community(600, 4200, 49, 0.2, rng)
	cfg := anc.DefaultConfig()
	cfg.Epsilon = 0.3
	cfg.Mu = 3
	net, err := anc.FromGraph(pl.Graph, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social network: %d users, %d friendships\n", net.N(), net.M())

	// Follow user 0's active community as interactions stream in, reading
	// it with ClusterOf every ten time steps.
	focus := 0
	level := net.SqrtLevel()
	fmt.Printf("watching user %d at granularity level %d (Θ(√n) clusters)\n\n", focus, level)

	stream := gen.CommunityBiasedStream(pl.Graph, pl.Truth, 50, 0.05, 0.9, rng)
	at := 0
	for ts := 1; ts <= 50; ts++ {
		for ; at < len(stream) && stream[at].T <= float64(ts); at++ {
			u, v := pl.Graph.Endpoints(stream[at].Edge)
			if err := net.Activate(int(u), int(v), stream[at].T); err != nil {
				log.Fatal(err)
			}
		}
		if ts%10 == 0 {
			community := net.ClusterOf(focus, level)
			sameTruth := 0
			for _, m := range community {
				if pl.Truth[m] == pl.Truth[focus] {
					sameTruth++
				}
			}
			fmt.Printf("t=%2d: local community of user %d has %3d members "+
				"(%d from the planted friend group)\n",
				ts, focus, len(community), sameTruth)
		}
	}

	// Global report at the default granularity.
	clusters := net.Clusters(level)
	big := 0
	for _, c := range clusters {
		if len(c) >= 3 {
			big++
		}
	}
	fmt.Printf("\nfinal: %d clusters (%d with ≥3 members) at level %d — planted: 49\n",
		len(clusters), big, level)
}
