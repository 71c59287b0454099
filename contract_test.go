package anc_test

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sort"
	"testing"

	"anc"
	"anc/internal/gen"
	"anc/internal/graph"
)

// contractGraph is the contract's relation graph: a 1,024-node planted
// partition (32 groups of 32, pIn 0.2, pOut 0.0015, graph seed 1).
func contractGraph() *graph.Graph {
	sizes := make([]int, 32)
	for i := range sizes {
		sizes[i] = 32
	}
	return gen.PlantedPartition(sizes, 0.2, 0.0015, rand.New(rand.NewSource(1))).Graph
}

// contractNetwork builds a fresh method-m network over g with λ = 0.01 and
// the core tests' similarity parameters.
func contractNetwork(t *testing.T, g *graph.Graph, m anc.Method) *anc.Network {
	t.Helper()
	cfg := anc.DefaultConfig()
	cfg.Method = m
	cfg.Lambda = 0.01
	cfg.Epsilon = 0.2
	cfg.Mu = 3
	cfg.Seed = 42
	net, err := anc.FromGraph(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// contractStream is n uniform activations over g's edges (stream seed 4),
// with time advancing by 1 every 64 activations — four rescale periods'
// worth at n = 20,000, with many activations sharing each timestamp.
func contractStream(g *graph.Graph, n int) []anc.Activation {
	rng := rand.New(rand.NewSource(4))
	stream := make([]anc.Activation, n)
	now := 0.0
	for i := range stream {
		if i%64 == 0 {
			now++
		}
		u, v := g.Endpoints(graph.EdgeID(rng.Intn(g.M())))
		stream[i] = anc.Activation{U: int(u), V: int(v), T: now}
	}
	return stream
}

// ingester is the write surface shared by Network and DurableNetwork.
type ingester interface {
	Activate(u, v int, t float64) error
	ActivateBatch(batch []anc.Activation) error
}

// contractProbes are the stream positions at which a probing run saves:
// every 997th activation, and activation 8,200, which falls after the
// second rescale (at 8,192, when time reaches 129) and before the next
// ANCOR interval flush (at 8,256, time 130), where a settle on either
// side of the rescale could once leave the index different bits.
var contractProbes = func() []int {
	probes := []int{8200}
	for p := 997; p < 20000; p += 997 {
		probes = append(probes, p)
	}
	sort.Ints(probes)
	return probes
}()

// contractRun is one way of driving the stream into a network.
type contractRun struct {
	name string
	// chunks lists the call sizes; each call draws one at random. A size
	// of 1 is a per-op Activate.
	chunks []int
	// quiet runs never Save before the end; the others Save at every
	// probe position, and their bytes there are compared too.
	quiet bool
	// swap Saves and Loads a copy at a random activation and continues on
	// the copy.
	swap bool
	// durable runs through a DurableNetwork checkpointing every
	// checkpointEvery activations (0: never); crash closes it without a
	// checkpoint at a random activation and continues on Recover's
	// network.
	durable         bool
	checkpointEvery int
	crash           bool
}

// drive feeds stream to a fresh method-m network over g as r prescribes, with
// call sizes and the event position drawn from seed. It returns the digest
// of the Save bytes at each probe position (none for a quiet run) followed
// by that of the final Save.
func (r contractRun) drive(t *testing.T, g *graph.Graph, m anc.Method, stream []anc.Activation, seed int64) [][sha256.Size]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := contractNetwork(t, g, m)
	var (
		in  ingester = net
		dur *anc.DurableNetwork
		dir string
		cfg = anc.DurableConfig{Sync: anc.SyncNever, CheckpointEvery: r.checkpointEvery}
		err error
	)
	if r.durable {
		dir = t.TempDir()
		if dur, err = anc.NewDurable(net, dir, cfg); err != nil {
			t.Fatal(err)
		}
		in = dur
	}
	var saves [][sha256.Size]byte
	save := func() {
		if dur != nil {
			net = dur.Unwrap()
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saves = append(saves, sha256.Sum256(buf.Bytes()))
	}
	// cuts are the positions a call must end at: the probes, and the
	// activation at which the swap or the crash happens.
	var cuts []int
	if !r.quiet {
		cuts = append(cuts, contractProbes...)
	}
	event := -1
	if r.swap || r.crash {
		event = len(stream)/4 + rng.Intn(len(stream)/2)
		cuts = append(cuts, event)
		sort.Ints(cuts)
	}
	for pos := 0; pos < len(stream); {
		n := min(r.chunks[rng.Intn(len(r.chunks))], len(stream)-pos)
		for len(cuts) > 0 && cuts[0] <= pos {
			cuts = cuts[1:]
		}
		if len(cuts) > 0 && pos+n > cuts[0] {
			n = cuts[0] - pos
		}
		if n == 1 {
			a := stream[pos]
			err = in.Activate(a.U, a.V, a.T)
		} else {
			err = in.ActivateBatch(stream[pos : pos+n])
		}
		if err != nil {
			t.Fatal(err)
		}
		pos += n
		if !r.quiet && len(saves) < len(contractProbes) && pos == contractProbes[len(saves)] {
			save()
		}
		switch {
		case pos != event:
		case r.swap:
			var buf bytes.Buffer
			if err := net.Save(&buf); err != nil {
				t.Fatal(err)
			}
			net.Close()
			if net, err = anc.Load(&buf); err != nil {
				t.Fatal(err)
			}
			in = net
		case r.crash:
			if err := dur.Close(); err != nil {
				t.Fatal(err)
			}
			if dur, err = anc.Recover(dir, cfg); err != nil {
				t.Fatal(err)
			}
			in = dur
		}
	}
	save()
	if dur != nil {
		dur.Close()
	} else {
		net.Close()
	}
	return saves
}

// TestStateIsAFunctionOfTheStream is the determinism contract: the same
// activation stream gives byte-identical Save output however it was
// chunked into calls, whatever the checkpoint cadence, and through a
// Save→Load swap, extra Saves or a crash and recovery at any point — for
// every method. The reference ingests per-op Activate calls and Saves at
// every probe; each other run must match it at every probe it saves at
// and at the end.
func TestStateIsAFunctionOfTheStream(t *testing.T) {
	if testing.Short() {
		t.Skip("20,000 activations per run")
	}
	mixed := []int{1, 24, 1000}
	runs := []contractRun{
		{name: "per-op, never saving", chunks: []int{1}, quiet: true},
		{name: "batches of 24", chunks: []int{24}},
		{name: "batches of 1000", chunks: []int{1000}},
		{name: "mixed chunks", chunks: mixed},
		{name: "batches of 24, never saving", chunks: []int{24}, quiet: true},
		{name: "mixed chunks, Save→Load swap", chunks: mixed, swap: true},
		{name: "durable, no checkpoints", chunks: mixed, durable: true},
		{name: "durable, checkpoint every 997", chunks: mixed, durable: true, checkpointEvery: 997},
		{name: "durable, checkpoint every 5000", chunks: mixed, durable: true, checkpointEvery: 5000},
		{name: "durable, checkpoint every 997, crash", chunks: mixed, durable: true, checkpointEvery: 997, crash: true},
		{name: "durable, no checkpoints, crash", chunks: mixed, durable: true, crash: true},
	}
	g := contractGraph()
	stream := contractStream(g, 20000)
	for _, m := range []anc.Method{anc.ANCO, anc.ANCOR, anc.ANCF} {
		t.Run(m.String(), func(t *testing.T) {
			want := contractRun{name: "per-op", chunks: []int{1}}.drive(t, g, m, stream, 0)
			for i, r := range runs {
				got := r.drive(t, g, m, stream, int64(i+1))
				if got[len(got)-1] != want[len(want)-1] {
					t.Errorf("%s: final Save bytes differ from per-op ingest of the same stream", r.name)
				}
				for i := range got[:len(got)-1] {
					if got[i] != want[i] {
						t.Errorf("%s: Save bytes at activation %d differ from per-op ingest of the same stream", r.name, contractProbes[i])
						break
					}
				}
			}
		})
	}
}
