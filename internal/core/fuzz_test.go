package core

import (
	"bytes"
	"testing"

	"anc/internal/graph"
)

// fuzzSeedSnapshot saves a small network of method m after ten
// activations; under ANCF they are all still pending.
func fuzzSeedSnapshot(f *testing.F, m Method) []byte {
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			f.Fatal(err)
		}
	}
	o := DefaultOptions()
	o.Method = m
	nw, err := New(b.Build(), o)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := nw.Activate(graph.EdgeID(i%6), float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoad feeds mutated and truncated snapshot bytes into Load: the only
// acceptable outcomes are an error or a usable network — never a panic
// and never an absurd allocation (bounds checks keep corrupt headers from
// demanding gigabytes).
func FuzzLoad(f *testing.F) {
	valid := fuzzSeedSnapshot(f, ANCO)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("junk that is not a snapshot at all"))
	// A snapshot with a non-empty pending list, so the fuzzer starts with
	// a foothold in the pending edges and their index weights too.
	f.Add(fuzzSeedSnapshot(f, ANCF))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		nw, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever loaded must be a usable network.
		if nw.Graph().N() == 0 {
			t.Fatal("loaded a network with zero nodes")
		}
		nw.Clusters(1)
		if nw.Graph().M() > 0 {
			if err := nw.Activate(0, nw.Clock().Now()+1); err != nil {
				t.Fatalf("loaded network rejects a valid activation: %v", err)
			}
		}
	})
}
