// Package decay implements the time-decay scheme of Section IV-A: the
// activeness of an edge is the sum of exponentially decayed activations,
//
//	a_t(e) = Σ_{(e,t_i): t_i ≤ t} exp(-λ (t - t_i)),
//
// maintained with a single *global decay factor* g(t, t*) = exp(-λ (t - t*))
// so that the per-edge state — the anchored activeness a*_t(e) = a_t(e) /
// g(t, t*) — only changes when that edge is activated (Observation 1,
// Definition 1). A batched rescale periodically folds g into the anchored
// values and advances the anchor time t*, keeping floats in range; its cost
// is amortized over the activations that triggered it (Lemma 1).
package decay

import (
	"fmt"
	"math"

	"anc/internal/obs"
)

// DefaultRescaleEvery is the default number of activations between batched
// rescales of the anchored state.
const DefaultRescaleEvery = 4096

// Clock tracks the global decay state shared by every anchored quantity:
// the decay factor λ, the current time t, and the anchor time t*.
type Clock struct {
	lambda   float64
	now      float64 // current time t
	anchor   float64 // anchor time t*
	pending  int     // activations since last rescale
	every    int     // rescale period in activations (0 disables)
	rescalee []Rescalable
	rescales *obs.Counter // nil-safe; nil when observability is off
}

// Rescalable is implemented by stores of anchored values. OnRescale is
// called with the factor each anchored value must be multiplied by when the
// anchor time advances: g(t, t*) for positively maintainable (PosM)
// quantities, 1/g for negatively maintainable (NegM) ones (Definition 2).
// The callee knows its own polarity; it receives g and applies g or 1/g.
type Rescalable interface {
	OnRescale(g float64)
}

// NewClock returns a clock with decay factor lambda ≥ 0, at time 0.
func NewClock(lambda float64) *Clock {
	if lambda < 0 || math.IsNaN(lambda) {
		panic(fmt.Sprintf("decay: invalid lambda %v", lambda))
	}
	return &Clock{lambda: lambda, every: DefaultRescaleEvery}
}

// SetRescaleEvery sets the batched-rescale period in activations.
// A period of 0 disables automatic rescaling.
func (c *Clock) SetRescaleEvery(every int) { c.every = every }

// Register adds a store of anchored values to be notified on rescale.
func (c *Clock) Register(r Rescalable) { c.rescalee = append(c.rescalee, r) }

// SetRescaleCounter attaches an observability counter bumped on every
// batched rescale (a nil counter detaches; counter methods are nil-safe,
// so Rescale never branches on attachment). Rescale frequency is the
// hidden cost center of tie-decay maintenance — the paper amortizes its
// O(m) fold over the activations that triggered it — so operators watch
// this rate against the ingest rate.
func (c *Clock) SetRescaleCounter(ctr *obs.Counter) { c.rescales = ctr }

// Lambda returns the decay factor λ.
func (c *Clock) Lambda() float64 { return c.lambda }

// Now returns the current time t.
func (c *Clock) Now() float64 { return c.now }

// Anchor returns the anchor time t*.
func (c *Clock) Anchor() float64 { return c.anchor }

// G returns the global decay factor g(t, t*) = exp(-λ (t - t*)).
//
//anclint:hotpath
func (c *Clock) G() float64 { return math.Exp(-c.lambda * (c.now - c.anchor)) }

// Advance moves the current time forward to t. Time never goes backwards;
// Advance panics if t < Now(), since an activation stream is ordered.
func (c *Clock) Advance(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("decay: time moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}

// Activated records that one activation arrived and triggers a batched
// rescale when the period is reached.
func (c *Clock) Activated() { c.ActivatedN(1) }

// ActivatedN records that n activations arrived and triggers a batched
// rescale when the period is reached. Batch ingest calls this once per
// batch, deferring the rescale check to batch end. The rescale is
// invisible in exact arithmetic (Lemma 10), but its fold rounds: when the
// period is reached inside a batch, per-op ingest of the same stream
// rescales at a different point and ends with different last bits.
func (c *Clock) ActivatedN(n int) {
	c.pending += n
	if c.every > 0 && c.pending >= c.every {
		c.Rescale()
	}
}

// RestoreTime sets the clock to a saved (now, anchor) state without
// touching registered stores. It exists for snapshot persistence, where
// anchored values are saved after a Rescale (so anchor == now and the
// stored values are true values); the caller restores those values
// directly and then re-aligns the clock with this method.
func (c *Clock) RestoreTime(now, anchor float64) {
	if anchor > now {
		panic(fmt.Sprintf("decay: anchor %v after now %v", anchor, now))
	}
	c.now = now
	c.anchor = anchor
	c.pending = 0
}

// Rescale folds the current global decay factor into every registered
// anchored store and advances the anchor time to now.
func (c *Clock) Rescale() {
	g := c.G()
	for _, r := range c.rescalee {
		r.OnRescale(g)
	}
	c.anchor = c.now
	c.pending = 0
	c.rescales.Inc()
}

// Activeness stores the anchored activeness a* of every edge. It is PosM,
// so a rescale multiplies it by g.
type Activeness struct {
	clock *Clock
	edge  []float64 // anchored activeness per edge ID
}

// NewActiveness returns the activeness store for a graph with m edges.
// Initial activeness is initial on every edge (the paper's online methods
// start from a_0(e) = 1; pass 0 for a cold start). n and ends are unused:
// the store keeps no per-node state (package similarity sums what it needs
// where it reads it).
func NewActiveness(clock *Clock, n, m int, initial float64, ends func(e int32) (int32, int32)) *Activeness {
	a := &Activeness{clock: clock, edge: make([]float64, m)}
	if initial != 0 {
		for i := range a.edge {
			a.edge[i] = initial
		}
	}
	clock.Register(a)
	return a
}

// OnRescale implements Rescalable: activeness is PosM so anchored values
// absorb ×g.
//
//anclint:hotpath
func (a *Activeness) OnRescale(g float64) {
	for i := range a.edge {
		a.edge[i] *= g
	}
}

// Activate applies the activation (e, t): advances the clock and adds
// 1/g(t, t*) to the anchored activeness of e (Definition 1). O(1) plus the
// amortized rescale cost.
//
//anclint:hotpath
func (a *Activeness) Activate(e int32, t float64) {
	a.clock.Advance(t)
	a.Bump(e)
	a.clock.Activated()
}

// Bump adds one activation impact 1/g at the clock's *current* time
// without advancing it or counting toward the rescale period. Batch ingest
// uses it to apply many impacts per clock advance: the caller advances the
// clock once per distinct timestamp, Bumps each activation, and settles
// the rescale accounting with Clock.ActivatedN at batch end. Each impact
// is Activate's arithmetic; the anchored state of the two paths differs
// only when a rescale falls inside a batch, since Activate may rescale
// between two activations and the batch only at its end.
//
//anclint:hotpath
func (a *Activeness) Bump(e int32) {
	a.edge[e] += 1 / a.clock.G()
}

// Restore overwrites every anchored edge activeness with the given values.
// Snapshot-persistence hook; values must be anchored at the clock's current
// anchor time.
func (a *Activeness) Restore(values []float64) {
	if len(values) != len(a.edge) {
		panic("decay: Restore length mismatch")
	}
	copy(a.edge, values)
}

// Anchored returns the anchored activeness a*_t(e).
//
//anclint:hotpath
func (a *Activeness) Anchored(e int32) float64 { return a.edge[e] }

// At returns the true activeness a_t(e) = a*_t(e) × g(t, t*).
//
//anclint:hotpath
func (a *Activeness) At(e int32) float64 { return a.edge[e] * a.clock.G() }

// Clock returns the clock the store is anchored to.
func (a *Activeness) Clock() *Clock { return a.clock }
