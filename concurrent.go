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
// ingest and Save. A zooming caller holds its level and asks
// Clusters(level) / ClusterOf(v, level).
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

// Close releases the index worker pool (exclusive lock).
func (c *ConcurrentNetwork) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.net.Close()
}

// Save snapshots the network (shared lock: Save only reads, so queries
// run beside it and only writers wait).
func (c *ConcurrentNetwork) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.net.Save(w)
}
