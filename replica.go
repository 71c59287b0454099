package anc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"anc/internal/obs/trace"
)

// This file is the durable layer's replication surface: the hooks a
// primary needs to ship its committed WAL frames (Dir, FrameSignal,
// NewestCheckpoint) and the hooks a follower needs to replay them
// byte-identically (ApplyFrame, Restore). Replication rides
// entirely on the existing durability machinery — a follower is just a
// DurableNetwork whose frames arrive over the wire instead of from local
// Activate calls, so crash recovery, checkpoint retention and the
// determinism guarantee (identical frames ⇒ byte-identical Save) all
// carry over unchanged.

// Dir returns the directory holding this network's WAL segments and
// checkpoints. A primary's replication stream is served straight from
// these files: the newest on-disk checkpoint bootstraps a lagging
// follower and the segment tail is read with wal.Replay — never through
// the in-memory network, so streaming takes no network lock.
func (d *DurableNetwork) Dir() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dir
}

// FrameSignal returns the WAL append cursor — the index one past the last
// logged frame — plus a channel closed on the next append (or on Close).
// It is the tailing hook: a replication sender parks on wake instead of
// polling the directory.
func (d *DurableNetwork) FrameSignal() (next uint64, wake <-chan struct{}) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w.Appended()
}

// NewestCheckpoint reports the newest on-disk checkpoint: the WAL index
// it covers and its path. Serving the file (rather than Save on the live
// network) keeps bootstrap reads off the network lock and ships exactly
// the bytes recovery would load. ok is false when dir holds no
// checkpoint — impossible for a live DurableNetwork, which writes
// checkpoint-0 before opening its log.
func (d *DurableNetwork) NewestCheckpoint() (index uint64, path string, ok bool, err error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cps, err := listCheckpoints(d.dir)
	if err != nil || len(cps) == 0 {
		return 0, "", false, err
	}
	cp := cps[len(cps)-1]
	return cp.index, cp.path, true, nil
}

// ApplyFrame ingests one replicated WAL frame: the follower's write path.
// The raw payload is appended to the local WAL byte-for-byte and then
// applied through the same write path as local ingest (commitFrame), so a
// follower's log and state are exactly what a local run of the same
// history would have produced — which is what makes convergence checkable
// by comparing Save bytes.
//
// index must equal the local log's next index; anything else is a gap or
// a duplicate and is rejected with ErrFrameGap wrapping detail, leaving
// the state untouched. Duplicates are the caller's business to skip
// (replication sessions may legitimately replay an overlap after a
// reconnect).
//
//anclint:ignore lockdiscipline pure delegation with a zero span; ApplyFrameTraced takes the lock itself
func (d *DurableNetwork) ApplyFrame(index uint64, payload []byte) error {
	return d.ApplyFrameTraced(index, payload, trace.SpanHandle{}) //anclint:ignore lockdiscipline no lock is held here; the traced variant acquires it
}

// ApplyFrameTraced is ApplyFrame under a follower-side span (minted from
// the trace ID the primary shipped with the frame), recording the local
// WAL append and the in-memory apply as children just like the primary's
// traced ingest path does. A zero handle degrades to plain ApplyFrame.
func (d *DurableNetwork) ApplyFrameTraced(index uint64, payload []byte, sp trace.SpanHandle) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if next := d.w.NextIndex(); index != next {
		return fmt.Errorf("%w: frame %d, log at %d", ErrFrameGap, index, next)
	}
	acts, err := decodeFrame(payload)
	if err != nil {
		return err
	}
	if err := d.net.checkIngest(acts); err != nil {
		return err
	}
	return d.commitFrame(acts, payload, sp)
}

// ErrFrameGap is wrapped by ApplyFrame when the offered frame index does
// not line up with the local log — the follower must either skip (stale
// duplicate) or resubscribe (gap).
var ErrFrameGap = errors.New("anc: replicated frame out of sequence")

// Restore resets the network, in place, to a checkpoint snapshot of the
// same relation graph shipped over the wire: the follower bootstrap when
// its log has fallen below the primary's retained segments. It is a no-op
// when the log already reaches index, and returns ErrClosed after Close.
// The snapshot is decoded off the lock; then, under the exclusive lock,
// the log is closed, the directory's (older) durable state is discarded,
// the snapshot is persisted as checkpoint-<index>.snap, and reset reopens
// the log at index. Readers see the old state or the new one; the caches
// they probe, and their counters, carry over. A failure once the old log
// is closed leaves the network closed, answering from the old state.
//
//anclint:ignore lockdiscipline the decode runs off the lock on purpose; restore, the exclusive section, takes it itself
func (d *DurableNetwork) Restore(snapshot []byte, index uint64) error {
	net, err := Load(bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	spare, err := d.restore(net, snapshot, index)
	spare.Close()
	return err
}

// restore is Restore's exclusive section. It returns the core network
// for the caller to release: the old one once net is in, else net.
func (d *DurableNetwork) restore(net *Network, snapshot []byte, index uint64) (*Network, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.net
	switch {
	case d.closed:
		return net, ErrClosed
	case index <= d.w.NextIndex():
		return net, nil
	case net.N() != old.N() || net.M() != old.M() || net.Levels() != old.Levels():
		return net, fmt.Errorf("anc: snapshot of a %d-node, %d-edge network does not fit this %d-node, %d-edge one",
			net.N(), net.M(), old.N(), old.M())
	}
	d.closed = true // the old log goes first; only a completed reset reopens one
	if err := d.w.Close(); err != nil {
		return net, err
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return net, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".snap") ||
			strings.HasSuffix(name, ".corrupt") || name == "checkpoint.tmp" {
			if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
				return net, err
			}
		}
	}
	err = writeCheckpoint(d.dir, index, func(w io.Writer) error {
		_, err := w.Write(snapshot)
		return err
	})
	if err != nil {
		return net, err
	}
	if err := d.reset(net, index); err != nil {
		return net, err
	}
	d.closed = false
	return old, nil
}
