package lockdiscipline

import (
	"sync"
	"sync/atomic"
)

type inner struct{ n int }

type Wrapper struct {
	mu    sync.RWMutex
	inner *inner
}

func (w *Wrapper) Bad() int { // want "touches guarded state but does not start with w.mu.Lock/RLock"
	return w.inner.n
}

func (w *Wrapper) MissingDefer() int { // want "must defer w.mu.RUnlock directly after w.mu.RLock"
	w.mu.RLock()
	n := w.inner.n
	w.mu.RUnlock()
	return n
}

func (w *Wrapper) Size() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.sizeLocked()
}

func (w *Wrapper) sizeLocked() int { return w.inner.n }

func (w *Wrapper) SelfCall() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.Size() // want "calls exported method Size while holding w.mu"
}

// A Stats-style aggregate accessor must take the lock once for the whole
// snapshot, not read each guarded field bare.
type wrapperStats struct {
	A, B int
}

func (w *Wrapper) Stats() wrapperStats { // want "touches guarded state but does not start with w.mu.Lock/RLock"
	return wrapperStats{A: w.inner.n, B: w.inner.n * 2}
}

// An atomic field alongside plain guarded state exempts only itself: the
// plain read still demands the lock.
type Mixed struct {
	mu   sync.Mutex
	n    int
	acts atomic.Uint64
}

func (m *Mixed) Both() int { // want "touches guarded state but does not start with m.mu.Lock/RLock"
	_ = m.acts.Load()
	return m.n
}

// A struct that embeds a guarded struct is guarded by the promoted mu: its
// own methods answer to the same three rules.
type Embedder struct {
	Wrapper
	extra int
}

func (e *Embedder) Unlocked() int { // want "touches guarded state but does not start with e.mu.Lock/RLock"
	return e.extra
}

// Promoted exported methods lock the very mutex the caller holds, reached
// by promotion or through the embedded field.
func (e *Embedder) PromotedSelfCall() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.extra + e.Size() // want "calls exported method Size while holding e.mu"
}

func (e *Embedder) EmbeddedFieldSelfCall() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.extra + e.Wrapper.Size() // want "calls exported method Size while holding e.mu"
}
