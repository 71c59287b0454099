package pyramid

import (
	"runtime"
	"sync"
	"sync/atomic"

	"anc/internal/graph"
	"anc/internal/pq"
)

// scratch is the Dijkstra working state of one update or rebuild: the
// priority queue, the changed-set accumulator with its dedup stamps and
// entry seeds, and the subtree-traversal buffers of Algorithm 3. It used to
// live inside every Partition (K·⌈log₂ n⌉ copies); now one scratch exists
// per worker plus one for the serial path, and is reused across calls, so
// the memory scales with the worker count instead of the partition count
// and the hot ingest path allocates nothing.
type scratch struct {
	heap      *pq.Heap
	changed   []graph.NodeID // nodes touched by the repair (valid until next use); cap n
	stamp     []int32        // dedup stamp for changed
	stampID   int32
	entrySeed []graph.NodeID // seed each changed node entered the repair with
	sub       []graph.NodeID // orphaned-subtree accumulator (Algorithm 3)
	stack     []graph.NodeID // DFS stack for subtree collection
}

func newScratch(n int) *scratch {
	return &scratch{
		heap:      pq.New(n),
		changed:   make([]graph.NodeID, 0, n),
		stamp:     make([]int32, n),
		entrySeed: make([]graph.NodeID, n),
	}
}

// markChanged records that v is about to change during the current update,
// deduplicating via the stamp array. seed is v's seed before the change;
// the first call per update keeps it, so applyBatch can tell the nodes whose
// seed really moved from those that only got a new distance. The stamp
// admits each node once per update, so changed never outgrows its capacity.
//
//anclint:hotpath
func (s *scratch) markChanged(v, seed graph.NodeID) {
	if s.stamp[v] != s.stampID {
		s.stamp[v] = s.stampID
		s.entrySeed[v] = seed
		s.changed = s.changed[:len(s.changed)+1]
		s.changed[len(s.changed)-1] = v
	}
}

// begin starts a fresh changed-set epoch.
func (s *scratch) begin() {
	s.stampID++
	s.changed = s.changed[:0]
	s.sub = s.sub[:0]
	s.heap.Reset()
}

// pool is a fixed set of long-lived workers, each owning one scratch, fed
// over an unbuffered task channel. Updates hand it one task per
// granularity level (Index.repairLevel): levels share nothing mutable
// (Lemma 13 plus per-level vote state), so a persistent pool of
// min(GOMAXPROCS, levels) workers saturates the hardware without
// per-activation goroutine churn.
type pool struct {
	tasks   chan poolTask
	done    sync.WaitGroup // run's barrier, reused by every call
	workers sync.WaitGroup
	// busy counts tasks executing right now; always maintained (two atomic
	// adds per task) so the occupancy gauge can sample it without the
	// workers ever reading mutable metrics state.
	busy atomic.Int64
}

type poolTask struct {
	fn   func(task int, s *scratch)
	task int
}

// poolSize returns min(GOMAXPROCS, tasks): more workers than independent
// tasks would only idle.
func poolSize(tasks int) int {
	w := runtime.GOMAXPROCS(0)
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// newPool starts `workers` goroutines, each with a scratch sized for an
// n-node graph. The goroutines live until close.
func newPool(workers, n int) *pool {
	p := &pool{tasks: make(chan poolTask)}
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			s := newScratch(n)
			for t := range p.tasks {
				p.busy.Add(1)
				t.fn(t.task, s)
				p.busy.Add(-1)
				p.done.Done()
			}
		}()
	}
	return p
}

// run dispatches fn for every task in [0, tasks), lowest first, and blocks
// until all complete. The barrier is the pool's own, so a call allocates
// nothing; calls must not overlap (the index's single writer guarantees it).
func (p *pool) run(tasks int, fn func(task int, s *scratch)) {
	p.done.Add(tasks)
	for i := 0; i < tasks; i++ {
		p.tasks <- poolTask{fn: fn, task: i}
	}
	p.done.Wait()
}

// close drains the pool: no task is in flight after run returns, so
// closing the channel stops every worker, and the wait guarantees zero
// leaked goroutines.
func (p *pool) close() {
	close(p.tasks)
	p.workers.Wait()
}
