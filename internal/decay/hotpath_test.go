package decay

import "testing"

var sinkF float64

// TestHotPathAllocs is the dynamic half of the //anclint:hotpath
// contract (DESIGN.md §14): the per-activation decay kernels — G,
// Bump, Activate (including its amortized Rescale) and the accessors —
// must run allocation-free.
func TestHotPathAllocs(t *testing.T) {
	ends := func(e int32) (int32, int32) { return e % 4, (e + 1) % 4 }
	clock := NewClock(0.1)
	clock.SetRescaleEvery(64) // exercise Rescale inside the measured loop
	a := NewActiveness(clock, 4, 8, 1, ends)
	tick := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		tick += 1e-3
		a.Activate(3, tick)
		a.Bump(5)
		sinkF += a.clock.G() + a.At(3) + a.Anchored(5)
	}); n != 0 {
		t.Errorf("decay kernels: %v allocs/op, want 0", n)
	}
}

// BenchmarkHotPathDecay is run by `make bench-smoke` under -benchmem so
// an allocation sneaking into the activation kernel shows as allocs/op.
func BenchmarkHotPathDecay(b *testing.B) {
	ends := func(e int32) (int32, int32) { return e % 4, (e + 1) % 4 }
	clock := NewClock(0.1)
	clock.SetRescaleEvery(1024)
	a := NewActiveness(clock, 4, 8, 1, ends)
	b.ReportAllocs()
	tick := 0.0
	for i := 0; i < b.N; i++ {
		tick += 1e-4
		a.Activate(int32(i%8), tick)
		sinkF += a.At(int32(i % 8))
	}
}
