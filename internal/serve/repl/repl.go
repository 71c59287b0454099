// Package repl is the WAL-shipping replication subsystem: a primary
// serves its committed write-ahead-log frames over the serve protocol's
// replication ops, and followers replay them through the exact machinery
// local recovery uses, so a follower's durable directory — and therefore
// its Save bytes — converge to the primary's.
//
// # Topology
//
// One Node embeds one DurableNetwork and plays one of two roles. A
// primary (Config.Upstream == "") accepts ingest and answers
// OpReplSubscribe by streaming frames straight from its durable
// directory: the subscriber names its next frame index, and the primary
// ships either the WAL tail from that index or — when the index has
// fallen below the retained segments — the newest on-disk checkpoint
// followed by the tail from the checkpoint's index. A follower
// (Config.Upstream set) dials its upstream, subscribes from its own log
// end, applies every received frame byte-identically via ApplyFrame, and
// refuses local ingest with ErrCodeReadOnly until promoted.
//
// # Staleness
//
// A follower is never wrong, only late: replay preserves the activation
// order, so at every moment the follower serves the well-defined decayed
// state of some prefix of the primary's history (the tie-decay
// formulation makes that state meaningful on its own). Staleness is
// reported as frames (primary's cursor minus local cursor) and as the
// wall-clock age of the last replication message, via Status, OpStats
// and the anc_repl_* metrics.
//
// # Failure model
//
// Sessions end five ways, each with a recorded cause: "dial" (upstream
// unreachable), "drain" (upstream shut down gracefully and said so with
// a typed ErrCodeShuttingDown frame), "crash" (connection died without
// the drain frame), "stall" (no message within the liveness window), and
// "gap"/"protocol" (stream state diverged — resubscribe from scratch).
// The follower reconnects with capped exponential backoff plus seeded
// jitter, resetting after any session that subscribed successfully. When
// Config.PromoteAfter is set and the upstream stays lost that long, the
// follower promotes itself: it seals its log with an fsync and starts
// accepting writes — failover by promotion.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"anc"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/serve"
	"anc/internal/serve/backoff"
	"anc/internal/wal"
)

// Config tunes a replication node. Every field has a serving-grade
// default.
type Config struct {
	// Upstream is the primary's address. Empty means this node IS the
	// primary: it serves subscriptions and never dials out.
	Upstream string
	// Dial opens the upstream connection (default: TCP with a 5s
	// timeout). Tests interpose FaultConn here.
	Dial func(addr string) (net.Conn, error)
	// PromoteAfter, when positive, self-promotes a follower that has been
	// without its upstream for this long. 0 never self-promotes.
	PromoteAfter time.Duration
	// ReconnectMin/ReconnectMax bound the reconnect backoff
	// (defaults 50ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// Heartbeat is the primary's status-push period on an idle stream
	// (default 500ms); a follower declares the stream stalled after
	// 4×Heartbeat without any message.
	Heartbeat time.Duration
	// ChunkFrames caps frames per ReplFrames push (default 256);
	// SnapshotChunk caps bytes per ReplSnapshot push (default 64 KiB).
	ChunkFrames   int
	SnapshotChunk int
	// MaxFrame bounds stream frames, matching the serving side (default
	// serve.DefaultMaxFrame).
	MaxFrame int
	// Seed feeds the reconnect-backoff jitter (and nothing else) via
	// internal/serve/backoff, keeping the package's behavior
	// reproducible under test. Zero draws a wall-clock seed.
	Seed int64
	// Logf, when non-nil, receives replication log lines (leveled key=value
	// format, sys=repl).
	Logf func(format string, args ...interface{})
	// Obs, when non-nil, attaches the anc_repl_* metric families.
	Obs *obs.Registry
	// Tracer, when non-nil, records a follower-side "repl.apply" span for
	// every replicated frame that carries a trace ID, so one distributed
	// trace covers the primary's ingest and each follower's apply.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.ChunkFrames <= 0 {
		c.ChunkFrames = 256
	}
	if c.SnapshotChunk <= 0 {
		c.SnapshotChunk = 64 << 10
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = serve.DefaultMaxFrame
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// chunkBytes caps the WAL payload bytes in one ReplFrames push; with the
// per-frame ceiling of ~1 MiB the whole push stays well under the 4 MiB
// frame bound.
const chunkBytes = 1 << 20

// Node is one replication participant: it embeds the DurableNetwork it
// replicates — a follower bootstrapping from a shipped snapshot restores
// into it, so the read surface is the network's own — and implements
// serve.Backend, serve.Replicator (the replication ops) and the durable
// surface (Checkpoint/Close) the server's shutdown paths use. The local
// write methods refuse with ErrCodeReadOnly while the node follows.
type Node struct {
	*anc.DurableNetwork
	cfg Config

	readOnly atomic.Bool

	// life serializes the lifecycle transitions — Start, Retarget, Promote
	// and Close — and guards the replication loop's handles: stop ends the
	// running loop (nil once closed), done closes when it has exited (nil
	// before the first loop). The loop gets its upstream and stop channel
	// as arguments, so it reads neither field.
	life sync.Mutex
	stop chan struct{}
	done chan struct{}

	// Follower session health, guarded by hmu: the follower loop writes,
	// Status reads.
	hmu         sync.Mutex
	primaryNext uint64
	primaryNow  float64
	lastMsg     time.Time
	reconnects  uint32
	lastCause   string

	subscribers atomic.Int32
	met         metrics
	log         *obs.Logger
}

// New builds a replication node over d. With cfg.Upstream empty the node
// is a primary; otherwise it is a read-only follower — call Start to
// launch its replication loop.
func New(d *anc.DurableNetwork, cfg Config) *Node {
	// Build the leveled logger from the raw sink: a nil Logf yields a nil
	// logger, which discards without formatting — cheaper than logging
	// through withDefaults' no-op closure.
	log := obs.NewLogger("repl", obs.LevelInfo, cfg.Logf)
	n := &Node{DurableNetwork: d, cfg: cfg.withDefaults(), log: log}
	n.readOnly.Store(cfg.Upstream != "")
	n.met = newMetrics(cfg.Obs, n)
	return n
}

// Start launches a follower's replication loop; on a primary it is a
// no-op. It may be called once.
func (n *Node) Start() {
	n.life.Lock()
	defer n.life.Unlock()
	if n.cfg.Upstream != "" && n.done == nil {
		n.startLocked(n.cfg.Upstream)
	}
}

// Retarget points the node at a new upstream and (re)starts its
// replication loop — the remaining follower's "follow the new primary"
// step after a failover. A still-running loop is stopped first; the node
// returns to read-only until its next promotion.
func (n *Node) Retarget(addr string) {
	n.life.Lock()
	defer n.life.Unlock()
	n.stopLocked()
	n.readOnly.Store(true)
	n.startLocked(addr)
}

// startLocked launches a replication loop following addr.
func (n *Node) startLocked(addr string) {
	n.stop, n.done = make(chan struct{}), make(chan struct{})
	go n.run(addr, n.stop, n.done)
}

// stopLocked ends the replication loop, if one runs, and waits for it to
// exit. The loop never takes life — it self-promotes through promote — so
// waiting while holding life cannot deadlock.
func (n *Node) stopLocked() {
	if n.stop != nil {
		close(n.stop)
		n.stop = nil
	}
	if n.done != nil {
		<-n.done
	}
}

// Close stops the replication loop (if any) and closes the network. It
// satisfies the server's durable-backend surface, so a Server
// Shutdown/Kill over this node tears replication down too.
func (n *Node) Close() error {
	n.life.Lock()
	n.stopLocked()
	n.cfg.Upstream = "" // a closed node follows nothing; a late Start is a no-op
	n.life.Unlock()
	return n.DurableNetwork.Close()
}

// ---- serve.Backend ------------------------------------------------------

// writable returns the typed read-only error the serving layer forwards to
// clients while the node is an unpromoted follower, nil otherwise.
func (n *Node) writable() error {
	if n.readOnly.Load() {
		return &serve.WireError{Code: serve.ErrCodeReadOnly,
			Msg: "follower is read-only; ingest at the primary"}
	}
	return nil
}

// ActivateBatchTraced applies a batch locally through the durable
// network's traced path (a zero sp is the untraced case) — refused while
// the node is an unpromoted follower. ApplyFrame, the replication path,
// stays open.
func (n *Node) ActivateBatchTraced(batch []anc.Activation, sp trace.SpanHandle) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.DurableNetwork.ActivateBatchTraced(batch, sp)
}

// ActivateBatch is ActivateBatchTraced without a span.
func (n *Node) ActivateBatch(batch []anc.Activation) error {
	return n.ActivateBatchTraced(batch, trace.SpanHandle{})
}

// Activate applies one activation locally, refused like ActivateBatch.
func (n *Node) Activate(u, v int, t float64) error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.DurableNetwork.Activate(u, v, t)
}

// Snapshot finalizes buffered work (see DurableNetwork.Snapshot): a state
// change outside the log, so a follower refuses it like ingest.
func (n *Node) Snapshot() error {
	if err := n.writable(); err != nil {
		return err
	}
	return n.DurableNetwork.Snapshot()
}

// ---- serve.Replicator ---------------------------------------------------

// ReadOnly reports whether local ingest must be refused.
func (n *Node) ReadOnly() bool { return n.readOnly.Load() }

// Role returns the node's current replication role: a read-only node is
// a follower.
func (n *Node) Role() uint8 {
	if n.readOnly.Load() {
		return serve.RoleFollower
	}
	return serve.RolePrimary
}

// Promote seals a follower's log (fsync) and re-enables ingest; its
// replication loop exits on its next wakeup. On a primary it is a
// no-op. Promotion is idempotent and one-way — a promoted node never
// silently re-follows (use Retarget for that, deliberately).
func (n *Node) Promote() error {
	n.life.Lock()
	defer n.life.Unlock()
	err := n.promote()
	if n.stop != nil {
		close(n.stop)
		n.stop = nil
	}
	return err
}

// promote is Promote without the lifecycle lock — the loop's own
// self-promotion, which must not wait on a Retarget or Close that is
// waiting on the loop. The log is sealed even when a concurrent promotion
// wins the flip.
func (n *Node) promote() error {
	if !n.readOnly.Load() {
		return nil
	}
	err := n.Sync()
	if n.readOnly.CompareAndSwap(true, false) {
		n.log.Info("promoted; log sealed, accepting writes")
	}
	return err
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Status reports replication health for OpReplStatus, OpStats and the
// gauges.
func (n *Node) Status() serve.ReplStatus {
	bs := n.Stats()
	st := serve.ReplStatus{
		Role:        n.Role(),
		Next:        n.LoggedActivations(),
		Activations: bs.Activations,
		Now:         bs.Now,
	}
	if st.Role == serve.RolePrimary {
		st.PrimaryNext, st.PrimaryNow = st.Next, st.Now
	}
	n.hmu.Lock()
	if st.Role == serve.RoleFollower {
		st.PrimaryNext, st.PrimaryNow = n.primaryNext, n.primaryNow
		if !n.lastMsg.IsZero() {
			st.LagSeconds = time.Since(n.lastMsg).Seconds()
		}
	}
	st.Reconnects, st.LastReconnect = n.reconnects, n.lastCause
	n.hmu.Unlock()
	if st.PrimaryNext < st.Next {
		// A promoted ex-follower has moved past its dead upstream's last
		// known cursor; it is not "negatively lagged".
		st.PrimaryNext = st.Next
	}
	return st
}

// errStopTail is the sentinel the tail reader returns to stop wal.Replay
// once a chunk is full.
var errStopTail = errors.New("repl: chunk full")

// Stream implements the primary side of one subscription (also usable on
// an unpromoted follower for chained topologies — it serves whatever its
// local log holds). A shipped chunk carries the trace IDs its frames were
// appended under when any is non-zero, so follower applies stitch into
// the primary's traces.
func (n *Node) Stream(from uint64, send func(payload []byte) error, stop <-chan struct{}) error {
	n.subscribers.Add(1)
	defer n.subscribers.Add(-1)

	// Bootstrap: a subscriber below the retained tail gets the newest
	// checkpoint, then the tail from the checkpoint's index.
	earliest, ok, err := wal.EarliestIndex(n.Dir())
	if err != nil {
		return err
	}
	cur := from
	if !ok || from < earliest {
		idx, path, ok, err := n.NewestCheckpoint()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("repl: no checkpoint to bootstrap subscriber at %d", from)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for off := 0; ; off += n.cfg.SnapshotChunk {
			end := off + n.cfg.SnapshotChunk
			if end > len(snap) {
				end = len(snap)
			}
			msg := &serve.ReplSnapshot{Index: idx, Total: uint64(len(snap)),
				Off: uint64(off), Data: snap[off:end]}
			if err := send(serve.EncodeReplSnapshot(msg)); err != nil {
				return err
			}
			if end == len(snap) {
				break
			}
		}
		n.met.snapshots.Inc()
		cur = idx
	}

	// Tell the subscriber where the primary stands before the first tail
	// chunk, so lag is observable immediately.
	if err := send(serve.EncodeReplStatus(&serve.ReplStatus{
		Role: n.Role(), Next: n.LoggedActivations(), PrimaryNext: n.LoggedActivations(),
	})); err != nil {
		return err
	}

	heartbeat := time.NewTicker(n.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		next, wake := n.FrameSignal()
		if cur < next {
			batch := &serve.ReplFrames{First: cur}
			var bytes int
			anyTraced := false
			_, err := wal.Replay(n.Dir(), cur, func(idx uint64, payload []byte) error {
				if idx != cur+uint64(len(batch.Frames)) {
					return fmt.Errorf("repl: tail gap: frame %d after %d", idx, cur+uint64(len(batch.Frames)))
				}
				if idx >= next {
					return errStopTail
				}
				// Replay reuses its payload buffer between frames — copy.
				cp := make([]byte, len(payload))
				copy(cp, payload)
				batch.Frames = append(batch.Frames, cp)
				bytes += len(cp)
				tid := n.TraceOf(idx)
				batch.Traces = append(batch.Traces, tid)
				anyTraced = anyTraced || tid != 0
				if len(batch.Frames) >= n.cfg.ChunkFrames || bytes >= chunkBytes {
					return errStopTail
				}
				return nil
			})
			if err != nil && !errors.Is(err, errStopTail) {
				return err
			}
			if !anyTraced {
				// All-zero trace sections carry no information — ship the
				// plain chunk and save 8 bytes per frame.
				batch.Traces = nil
			}
			if len(batch.Frames) == 0 {
				// The tail below next vanished underneath us (checkpoint
				// truncation racing a very slow subscriber): the session
				// cannot continue contiguously.
				return fmt.Errorf("repl: tail at %d no longer on disk", cur)
			}
			if err := send(serve.EncodeReplFrames(batch)); err != nil {
				return err
			}
			cur += uint64(len(batch.Frames))
			n.met.streamed.Add(uint64(len(batch.Frames)))
			continue
		}
		status := &serve.ReplStatus{Role: n.Role(), Next: next, PrimaryNext: next, Now: n.Now()}
		select {
		case <-stop:
			return nil
		case <-wake:
		case <-heartbeat.C:
			if err := send(serve.EncodeReplStatus(status)); err != nil {
				return err
			}
		}
	}
}

// ---- follower loop ------------------------------------------------------

// run is the follower loop: dial upstream, subscribe, apply until the
// session ends, note the cause, back off, repeat — until stop closes or
// the node is promoted.
func (n *Node) run(upstream string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	bo := backoff.New(n.cfg.ReconnectMin, n.cfg.ReconnectMax, n.cfg.Seed)
	var lostSince time.Time
	for {
		if stopped(stop) || !n.readOnly.Load() {
			return
		}
		cause, subscribed := n.session(upstream, stop)
		if stopped(stop) || !n.readOnly.Load() {
			return
		}
		n.hmu.Lock()
		n.reconnects++
		n.lastCause = cause
		n.hmu.Unlock()
		n.met.reconnects.Inc()
		n.log.Warn("session ended; reconnecting", "cause", cause, "upstream", upstream)
		if subscribed {
			bo.Reset()
			lostSince = time.Time{}
		}
		if lostSince.IsZero() {
			lostSince = time.Now()
		}
		if n.cfg.PromoteAfter > 0 && time.Since(lostSince) >= n.cfg.PromoteAfter {
			n.log.Warn("upstream lost; self-promoting", "after", n.cfg.PromoteAfter)
			if err := n.promote(); err != nil {
				n.log.Error("self-promotion failed", "err", err)
			}
			return
		}
		timer := time.NewTimer(bo.Next())
		select {
		case <-stop: // closed by Promote, Retarget and Close alike
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// session runs one replication session: one connection, one
// subscription, applied until something breaks. It returns the cause
// label and whether the subscription was acknowledged (progress, for
// backoff reset).
func (n *Node) session(upstream string, stop <-chan struct{}) (cause string, subscribed bool) {
	conn, err := n.cfg.Dial(upstream)
	if err != nil {
		return "dial", false
	}
	defer conn.Close() //anclint:ignore droppederr teardown of a replication session; nothing to recover

	liveness := 4 * n.cfg.Heartbeat
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	conn.SetDeadline(time.Now().Add(liveness))
	if err := serve.WritePreamble(conn); err != nil {
		return "handshake", false
	}
	if err := serve.ReadPreamble(br); err != nil {
		return "handshake", false
	}
	from := n.LoggedActivations()
	if err := serve.WriteRequest(bw, &serve.Request{Op: serve.OpReplSubscribe, ID: 1, From: from}); err != nil {
		return "handshake", false
	}
	resp, err := serve.ReadResponse(br, serve.OpReplSubscribe, n.cfg.MaxFrame)
	if err != nil {
		return "handshake", false
	}
	if resp.Err != nil {
		if resp.Err.Code == serve.ErrCodeShuttingDown {
			return "drain", false
		}
		return "rejected", false
	}
	n.log.Info("subscribed", "upstream", upstream, "from", from)
	n.hmu.Lock()
	n.lastMsg = time.Now()
	n.hmu.Unlock()

	var snap []byte // snapshot assembly buffer, nil when none in flight
	var snapIdx uint64
	for {
		if stopped(stop) || !n.readOnly.Load() {
			return "stop", true
		}
		conn.SetReadDeadline(time.Now().Add(liveness))
		payload, err := serve.ReadFrame(br, n.cfg.MaxFrame)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return "stall", true
			}
			return "crash", true
		}
		msg, err := serve.DecodeReplMessage(payload)
		if err != nil {
			n.log.Warn("bad stream message", "err", err)
			return "protocol", true
		}
		n.hmu.Lock()
		n.lastMsg = time.Now()
		n.hmu.Unlock()
		switch {
		case msg.Err != nil:
			if msg.Err.Code == serve.ErrCodeShuttingDown {
				return "drain", true
			}
			return "error", true
		case msg.Status != nil:
			n.hmu.Lock()
			n.primaryNext, n.primaryNow = msg.Status.PrimaryNext, msg.Status.Now
			n.hmu.Unlock()
		case msg.Frames != nil:
			if cause := n.applyFrames(msg.Frames); cause != "" {
				return cause, true
			}
		case msg.Snapshot != nil:
			s := msg.Snapshot
			if s.Off == 0 {
				snap, snapIdx = make([]byte, 0, s.Total), s.Index
			}
			if snap == nil || s.Index != snapIdx || s.Off != uint64(len(snap)) {
				return "protocol", true
			}
			snap = append(snap, s.Data...)
			if uint64(len(snap)) == s.Total {
				if cause := n.restore(snap, snapIdx); cause != "" {
					return cause, true
				}
				snap = nil
			}
		}
	}
}

// applyFrames applies one shipped batch: stale duplicates (below the
// local cursor — legitimate overlap after a reconnect) are skipped and
// counted, a gap above the cursor ends the session, everything else goes
// through ApplyFrame. A frame that arrived with a shipped trace ID is
// applied under a local "repl.apply" span minted into the primary's
// trace, so the distributed trace shows the follower's replay. An empty
// cause means success.
func (n *Node) applyFrames(f *serve.ReplFrames) string {
	for i, frame := range f.Frames {
		idx := f.First + uint64(i)
		next := n.LoggedActivations()
		if idx < next {
			n.met.duplicates.Inc()
			continue
		}
		if idx > next {
			n.log.Warn("frame gap", "got", idx, "log", next)
			return "gap"
		}
		if !n.readOnly.Load() {
			// A promotion raced this batch: the log is sealed; do not
			// apply replicated frames over locally accepted writes.
			return "stop"
		}
		var tid uint64
		if i < len(f.Traces) {
			tid = f.Traces[i]
		}
		var sp trace.SpanHandle
		if tid != 0 && n.cfg.Tracer != nil {
			sp = n.cfg.Tracer.Start("repl.apply", trace.Context{TraceID: tid})
			sp.AnnotateInt("frame", int64(idx))
		}
		err := n.ApplyFrameTraced(idx, frame, sp)
		if err != nil {
			sp.Fail()
		}
		sp.End()
		if err != nil {
			n.log.Error("apply failed", "frame", idx, "err", err, "trace", trace.FormatID(tid))
			return "apply"
		}
		n.met.applied.Inc()
	}
	n.hmu.Lock()
	if end := f.First + uint64(len(f.Frames)); end > n.primaryNext {
		n.primaryNext = end
	}
	n.hmu.Unlock()
	return ""
}

// restore bootstraps the follower from a fully assembled snapshot through
// DurableNetwork.Restore. A snapshot at or below the local cursor is
// ignored (the local log is already further along).
func (n *Node) restore(snap []byte, index uint64) string {
	if index <= n.LoggedActivations() {
		return ""
	}
	if err := n.Restore(snap, index); err != nil {
		n.log.Error("snapshot restore failed", "err", err)
		return "apply"
	}
	n.met.restores.Inc()
	n.log.Info("bootstrapped from snapshot", "frame", index)
	return ""
}
