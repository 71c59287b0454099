package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrder(t *testing.T) {
	h := New(10)
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(1, 3.0)
	wantItems := []int32{7, 1, 3}
	wantPrios := []float64{1, 3, 5}
	for i := range wantItems {
		x, p := h.Pop()
		if x != wantItems[i] || p != wantPrios[i] {
			t.Fatalf("pop %d = (%d,%g), want (%d,%g)", i, x, p, wantItems[i], wantPrios[i])
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(1, 5) // decrease
	x, p := h.Pop()
	if x != 1 || p != 5 {
		t.Fatalf("got (%d,%g), want (1,5)", x, p)
	}
}

func TestIncreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 5)
	h.Push(1, 30) // increase
	x, p := h.Pop()
	if x != 0 || p != 10 {
		t.Fatalf("got (%d,%g), want (0,10)", x, p)
	}
}

func TestTieBreakByID(t *testing.T) {
	h := New(5)
	h.Push(4, 1)
	h.Push(2, 1)
	h.Push(3, 1)
	var got []int32
	for h.Len() > 0 {
		x, _ := h.Pop()
		got = append(got, x)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("ties not broken by ID: %v", got)
		}
	}
}

func TestContains(t *testing.T) {
	h := New(3)
	h.Push(2, 7)
	if !h.Contains(2) || h.Contains(1) {
		t.Fatal("Contains wrong")
	}
	h.Pop()
	if h.Contains(2) {
		t.Fatal("Contains true after pop")
	}
}

func TestReset(t *testing.T) {
	h := New(8)
	for i := int32(0); i < 8; i++ {
		h.Push(i, float64(i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Len after Reset")
	}
	for i := int32(0); i < 8; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d still contained after Reset", i)
		}
	}
	h.Push(3, 1)
	if h.Len() != 1 {
		t.Fatal("push after Reset broken")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty Pop")
		}
	}()
	New(1).Pop()
}

// TestHeapSortProperty: pushing random priorities (with random updates) and
// draining yields non-decreasing priorities matching a reference sort.
func TestHeapSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := New(n)
		final := make(map[int32]float64)
		for i := 0; i < n*2; i++ {
			x := int32(rng.Intn(n))
			p := rng.Float64() * 100
			h.Push(x, p)
			final[x] = p
		}
		var want []float64
		for _, p := range final {
			want = append(want, p)
		}
		sort.Float64s(want)
		var got []float64
		for h.Len() > 0 {
			_, p := h.Pop()
			got = append(got, p)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPopSequenceMatchesSortedReference is the differential test of the
// heap's total order: random push/update/pop tapes over few items and a
// handful of distinct priorities (so ties are the common case) must pop
// exactly the (item, prio) sequence of a reference that keeps the queued
// pairs in a slice sorted by (prio, ID). Every tie-broken seed and parent
// choice of the Dijkstras, and so the saved index bytes, rest on this.
func TestPopSequenceMatchesSortedReference(t *testing.T) {
	type pair struct {
		item int32
		prio float64
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		h := New(n)
		var ref []pair // queued pairs, kept sorted by (prio, item)
		for op := 0; op < 40*n; op++ {
			if rng.Intn(3) > 0 { // push or update
				x, p := int32(rng.Intn(n)), float64(rng.Intn(4))/2
				h.Push(x, p)
				for i := range ref {
					if ref[i].item == x {
						ref = append(ref[:i], ref[i+1:]...)
						break
					}
				}
				ref = append(ref, pair{x, p})
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].prio != ref[j].prio {
						return ref[i].prio < ref[j].prio
					}
					return ref[i].item < ref[j].item
				})
			} else if len(ref) > 0 {
				x, p := h.Pop()
				if want := ref[0]; x != want.item || p != want.prio {
					t.Fatalf("seed %d op %d: popped (%d, %v), want (%d, %v)", seed, op, x, p, want.item, want.prio)
				}
				ref = ref[1:]
			}
			if h.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len %d, reference holds %d", seed, op, h.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			x, p := h.Pop()
			if want := ref[0]; x != want.item || p != want.prio {
				t.Fatalf("seed %d drain: popped (%d, %v), want (%d, %v)", seed, x, p, want.item, want.prio)
			}
			ref = ref[1:]
		}
	}
}
