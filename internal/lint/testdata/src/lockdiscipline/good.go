package lockdiscipline

import (
	"sync"
	"sync/atomic"
)

type state struct{ n int }

type Guarded struct {
	mu sync.Mutex
	st *state
}

func (g *Guarded) Add(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.st.n += n
}

// Exported entry points share code through unexported *Locked helpers.
func (g *Guarded) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lenLocked()
}

func (g *Guarded) lenLocked() int { return g.st.n }

// AggStats mirrors the Stats-style aggregate accessor: several guarded
// reads folded into one snapshot under a single lock acquisition.
type AggStats struct {
	Items, Total int
}

func (g *Guarded) Stats() AggStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return AggStats{Items: 1, Total: g.st.n}
}

// Internally synchronized fields are not guarded state: an atomic
// snapshot counter may be read lock-free so metric scrapes never queue
// behind a long batch ingest held under mu.
type Counting struct {
	mu   sync.Mutex
	st   *state
	acts atomic.Uint64
}

func (c *Counting) Activations() uint64 { return c.acts.Load() }

func (c *Counting) Bump(n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.n++
	c.acts.Add(n)
}

// A facade embedding the guarded struct locks through the promoted mu and
// reaches the embedded state directly (or via unexported helpers) — never
// through the embedded struct's exported, self-locking methods.
type Logged struct {
	Guarded
	log []int
}

func (l *Logged) Append(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log = append(l.log, n)
	l.st.n += n
}

func (l *Logged) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.log) + l.lenLocked()
}

// An embedded struct without a mutex promotes no lock: its exported
// methods are ordinary calls, not self-deadlocks.
type plain struct{ k int }

func (p *plain) K() int { return p.k }

type Mixin struct {
	mu sync.Mutex
	plain
}

func (m *Mixin) Get() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.K()
}
