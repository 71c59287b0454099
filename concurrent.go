package anc

import (
	"io"

	"anc/internal/obs"
	"anc/internal/obs/trace"
)

// ConcurrentNetwork wraps a Network with a readers–writer lock so that
// clustering queries can run concurrently with each other while
// activations serialize — the deployment shape of the paper's online
// scenario (one ingest stream, many query clients). The query surface is
// the embedded lock layer's (see lockedNetwork); this type adds in-memory
// ingest, zoom views and Save.
type ConcurrentNetwork struct {
	lockedNetwork
}

// NewConcurrent wraps an existing network and enables its materialized
// clustering cache and analytics layer. The caller must not keep using
// the wrapped network directly.
func NewConcurrent(net *Network) *ConcurrentNetwork {
	c := &ConcurrentNetwork{}
	c.wrap(net)
	return c
}

// Activate records an interaction (exclusive lock).
func (c *ConcurrentNetwork) Activate(u, v int, t float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.net.Activate(u, v, t)
	if err == nil {
		c.acts++
	}
	return err
}

// ActivateBatch records a batch of activations under a single lock
// acquisition — the high-throughput ingest path. Readers observe either
// none or all of the batch.
//
//anclint:ignore lockdiscipline pure delegation with a zero span; ActivateBatchTraced takes the lock itself
func (c *ConcurrentNetwork) ActivateBatch(batch []Activation) error {
	return c.ActivateBatchTraced(batch, trace.SpanHandle{}) //anclint:ignore lockdiscipline no lock is held here; the traced variant acquires it
}

// ActivateBatchTraced is ActivateBatch under an in-flight request span:
// the core pipeline's pyramid repair and invalidation stages become
// children of sp. A zero handle degrades to plain ActivateBatch.
func (c *ConcurrentNetwork) ActivateBatchTraced(batch []Activation, sp trace.SpanHandle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.net.ActivateBatchTraced(batch, sp)
	if err == nil {
		c.acts += uint64(len(batch))
	}
	return err
}

// Instrument attaches the wrapped network's observability handles to reg
// (see Network.Instrument). It takes the exclusive lock: attachment
// mutates state read by the ingest path.
func (c *ConcurrentNetwork) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.net.Instrument(reg)
}

// ConcurrentView is a zoomable navigator over a ConcurrentNetwork. Zoom
// state is per-view (not shared), and every query takes the network's
// shared lock, so any number of views may be used from any goroutines as
// long as each individual view stays on one goroutine at a time.
type ConcurrentView struct {
	c    *ConcurrentNetwork
	view *View
}

// View opens a navigator positioned at the Θ(√n) granularity (shared
// lock).
func (c *ConcurrentNetwork) View() *ConcurrentView {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &ConcurrentView{c: c, view: c.net.View()}
}

// Level reports the navigator's current granularity level.
func (v *ConcurrentView) Level() int { return v.view.Level() }

// ZoomIn moves one level finer; false at the finest level.
func (v *ConcurrentView) ZoomIn() bool { return v.view.ZoomIn() }

// ZoomOut moves one level coarser; false at the coarsest level.
func (v *ConcurrentView) ZoomOut() bool { return v.view.ZoomOut() }

// Clusters reports all clusters at the current level (shared lock).
func (v *ConcurrentView) Clusters() [][]int {
	v.c.mu.RLock()
	defer v.c.mu.RUnlock()
	return v.view.Clusters()
}

// ClusterOf reports the cluster containing x at the current level (shared
// lock).
func (v *ConcurrentView) ClusterOf(x int) []int {
	v.c.mu.RLock()
	defer v.c.mu.RUnlock()
	return v.view.ClusterOf(x)
}

// Close releases the index worker pool (exclusive lock).
func (c *ConcurrentNetwork) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.net.Close()
}

// Save snapshots the network (exclusive lock: Save flushes buffers).
func (c *ConcurrentNetwork) Save(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.net.Save(w)
}
