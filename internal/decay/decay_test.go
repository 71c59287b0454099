package decay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// pairEnds gives a tiny 2-node, 1-edge topology.
func pairEnds(e int32) (int32, int32) { return 0, 1 }

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// directActiveness computes a_t(e) from the raw definition (Equation 1).
func directActiveness(lambda float64, times []float64, t float64) float64 {
	sum := 0.0
	for _, ti := range times {
		if ti <= t {
			sum += math.Exp(-lambda * (t - ti))
		}
	}
	return sum
}

// TestPaperExample1 reproduces Example 1: λ=0.1, activations at t=0 and t=2.
func TestPaperExample1(t *testing.T) {
	c := NewClock(0.1)
	a := NewActiveness(c, 2, 1, 0, pairEnds)
	a.Activate(0, 0)
	c.Advance(1)
	if got := a.At(0); !almostEqual(got, math.Exp(-0.1)) {
		t.Fatalf("a_1 = %v, want %v", got, math.Exp(-0.1))
	}
	a.Activate(0, 2)
	want := math.Exp(-0.2) + 1
	if got := a.At(0); !almostEqual(got, want) {
		t.Fatalf("a_2 = %v, want %v", got, want)
	}
}

// TestPaperExample2 reproduces Example 2's anchored bookkeeping, including
// a manual rescale at t=2.
func TestPaperExample2(t *testing.T) {
	c := NewClock(0.1)
	c.SetRescaleEvery(0)
	a := NewActiveness(c, 2, 1, 0, pairEnds)
	a.Activate(0, 0)
	if a.Anchored(0) != 1 {
		t.Fatalf("a*_0 = %v, want 1", a.Anchored(0))
	}
	c.Advance(1)
	if !almostEqual(c.G(), math.Exp(-0.1)) {
		t.Fatalf("g = %v", c.G())
	}
	a.Activate(0, 2)
	// a*_2 = 1 + 1/g(2,0) = 1 + e^{0.2} ≈ 2.221
	if !almostEqual(a.Anchored(0), 1+math.Exp(0.2)) {
		t.Fatalf("a*_2 = %v, want %v", a.Anchored(0), 1+math.Exp(0.2))
	}
	trueBefore := a.At(0)
	c.Rescale()
	if c.Anchor() != 2 {
		t.Fatalf("anchor = %v, want 2", c.Anchor())
	}
	if !almostEqual(a.Anchored(0), trueBefore) {
		t.Fatalf("after rescale anchored = %v, want %v", a.Anchored(0), trueBefore)
	}
	if !almostEqual(a.At(0), trueBefore) {
		t.Fatalf("rescale changed true activeness: %v vs %v", a.At(0), trueBefore)
	}
}

func TestClockValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lambda accepted")
		}
	}()
	NewClock(-1)
}

func TestTimeBackwardsPanics(t *testing.T) {
	c := NewClock(0.5)
	c.Advance(3)
	defer func() {
		if recover() == nil {
			t.Fatal("time moved backwards without panic")
		}
	}()
	c.Advance(2)
}

func TestZeroLambdaNeverDecays(t *testing.T) {
	c := NewClock(0)
	a := NewActiveness(c, 2, 1, 0, pairEnds)
	a.Activate(0, 1)
	a.Activate(0, 100)
	c.Advance(1e6)
	if got := a.At(0); !almostEqual(got, 2) {
		t.Fatalf("λ=0 activeness = %v, want 2", got)
	}
}

func TestInitialActiveness(t *testing.T) {
	c := NewClock(0.1)
	ends := func(e int32) (int32, int32) { return e, e + 1 } // path 0-1-2
	a := NewActiveness(c, 3, 2, 1, ends)
	if a.At(0) != 1 || a.At(1) != 1 {
		t.Fatal("initial edge activeness wrong")
	}
	c.Advance(5)
	g := math.Exp(-0.5)
	if !almostEqual(a.At(0), g) {
		t.Fatalf("decayed initial = %v, want %v", a.At(0), g)
	}
}

// TestAnchoredMatchesDirect is the core property: for random activation
// streams with interleaved rescales, the maintained activeness equals the
// raw Equation 1 sum at all probe times.
func TestAnchoredMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lambda := rng.Float64() * 0.5
		c := NewClock(lambda)
		c.SetRescaleEvery(1 + rng.Intn(5))
		a := NewActiveness(c, 2, 1, 0, pairEnds)
		var times []float64
		now := 0.0
		for i := 0; i < 50; i++ {
			now += rng.Float64() * 3
			a.Activate(0, now)
			times = append(times, now)
			if rng.Intn(4) == 0 {
				c.Rescale()
			}
			want := directActiveness(lambda, times, now)
			if !almostEqual(a.At(0), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAutomaticRescaleBoundsState: with frequent automatic rescales the
// anchored values stay finite over long streams with strong decay.
func TestAutomaticRescaleBoundsState(t *testing.T) {
	c := NewClock(1.0)
	c.SetRescaleEvery(10)
	a := NewActiveness(c, 2, 1, 0, pairEnds)
	for i := 0; i < 10000; i++ {
		a.Activate(0, float64(i))
	}
	if math.IsInf(a.Anchored(0), 0) || math.IsNaN(a.Anchored(0)) {
		t.Fatalf("anchored state overflowed: %v", a.Anchored(0))
	}
	// Steady state of Σ e^{-k} ≈ 1/(1-e^{-1}) ≈ 1.582.
	want := 1 / (1 - math.Exp(-1))
	if math.Abs(a.At(0)-want) > 1e-6 {
		t.Fatalf("steady-state activeness = %v, want ≈ %v", a.At(0), want)
	}
}

func TestRescaleIsAmortizedNoop(t *testing.T) {
	// Rescaling twice in a row must not change anything.
	c := NewClock(0.3)
	c.SetRescaleEvery(0)
	a := NewActiveness(c, 2, 1, 0, pairEnds)
	a.Activate(0, 1)
	c.Advance(4)
	before := a.At(0)
	c.Rescale()
	c.Rescale()
	if !almostEqual(a.At(0), before) {
		t.Fatalf("double rescale drifted: %v vs %v", a.At(0), before)
	}
}

// TestRescaleWaitsForTimeToAdvance: counting activations never rescales;
// the rescale runs at the first strict time advance after the count
// reaches the period, so activations that share a timestamp are never
// split by one.
func TestRescaleWaitsForTimeToAdvance(t *testing.T) {
	c := NewClock(0.5)
	c.SetRescaleEvery(4)
	c.Advance(1)
	c.ActivatedN(5)
	c.Advance(1)
	if c.Anchor() != 0 || c.Pending() != 5 {
		t.Fatalf("rescaled without a time advance: anchor %v, pending %d", c.Anchor(), c.Pending())
	}
	c.Advance(2)
	if c.Anchor() != 2 || c.Pending() != 0 {
		t.Fatalf("no rescale at the advance: anchor %v, pending %d", c.Anchor(), c.Pending())
	}
	c.ActivatedN(3)
	c.Advance(3)
	if c.Anchor() != 2 || c.Pending() != 3 {
		t.Fatalf("rescaled below the period: anchor %v, pending %d", c.Anchor(), c.Pending())
	}
}
