package pq

import (
	"testing"
)

// FuzzHeapOps drives the heap with an arbitrary operation tape and checks
// the invariants: pops come out in non-decreasing priority, Contains/Len
// agree with a reference map, and no operation panics (except documented
// empty-Pop, which the tape never issues).
func FuzzHeapOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 200, 10, 0, 0, 255, 7})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 16
		h := New(n)
		ref := map[int32]float64{}
		lastPop := -1.0
		for i := 0; i+1 < len(tape); i += 2 {
			op := tape[i] % 2
			x := int32(tape[i+1] % n)
			switch op {
			case 0: // push / update
				p := float64(tape[i+1]) / 7.0
				h.Push(x, p)
				ref[x] = p
				lastPop = -1 // priorities changed; reset monotonicity check
			case 1: // pop
				if h.Len() == 0 {
					continue
				}
				y, p := h.Pop()
				want, ok := ref[y]
				if !ok {
					t.Fatalf("popped untracked item %d", y)
				}
				if p != want {
					t.Fatalf("popped priority %v, want %v", p, want)
				}
				if lastPop >= 0 && p < lastPop {
					t.Fatalf("pop order violated: %v after %v", p, lastPop)
				}
				lastPop = p
				delete(ref, y)
			}
			if h.Len() != len(ref) {
				t.Fatalf("Len %d != ref %d", h.Len(), len(ref))
			}
			for k := range ref {
				if !h.Contains(k) {
					t.Fatalf("ref item %d missing", k)
				}
			}
		}
	})
}
