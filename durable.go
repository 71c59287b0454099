package anc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anc/internal/graph"
	"anc/internal/obs"
	"anc/internal/obs/trace"
	"anc/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs; see the wal package
// for the exact guarantees of each policy.
type SyncPolicy = wal.SyncPolicy

// Fsync policies for DurableConfig.Sync.
const (
	// SyncAlways fsyncs after every activation: an acknowledged Activate
	// survives any crash. The default.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs every SyncEvery activations: bounded loss window,
	// much higher throughput.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS: survives process crashes, not
	// power loss.
	SyncNever = wal.SyncNever
)

// ErrNoDurableState is wrapped by Recover when dir holds no usable
// checkpoint — distinguish "nothing there yet" (start with NewDurable)
// from "something there, but corrupt".
var ErrNoDurableState = errors.New("anc: no durable state")

// ErrClosed is returned by mutating DurableNetwork methods after Close:
// a closed log must reject ingest loudly instead of tearing its tail.
var ErrClosed = errors.New("anc: durable network is closed")

// DurableConfig tunes the durability subsystem. The zero value is usable:
// 4 MiB WAL segments, fsync on every activation, checkpoints only when
// Checkpoint is called.
type DurableConfig struct {
	// SegmentSize is the WAL segment rotation threshold in bytes
	// (default 4 MiB).
	SegmentSize int64
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the record period of SyncInterval (default 64).
	SyncEvery int
	// CheckpointEvery, when positive, writes a checkpoint automatically
	// every that many logged activations. 0 checkpoints only on demand.
	CheckpointEvery int

	// Obs, when non-nil, attaches the durability subsystem's metrics
	// (anc_wal_* families: frames, fsyncs, fsync/checkpoint latency, batch
	// sizes, recovery stats) and the wrapped network's core/pyramid metrics
	// to the registry. Nil — the default — keeps observability off at near
	// zero cost.
	Obs *obs.Registry

	// openFile lets tests interpose the fault-injection harness between
	// the WAL and the disk.
	openFile func(path string) (wal.File, error)
}

func (c DurableConfig) walOptions() wal.Options {
	return wal.Options{
		SegmentSize: c.SegmentSize,
		Sync:        c.Sync,
		SyncEvery:   c.SyncEvery,
		OpenFile:    c.openFile,
		Metrics:     wal.NewMetrics(c.Obs),
	}
}

// DurableNetwork wraps a Network with a write-ahead log and checkpointing
// so the activation stream survives a crash: Activate logs the record
// first (fsynced per the configured policy) and only then applies it to
// the in-memory network — log-then-apply — so the durable history is
// always a superset of the applied one. The query surface and its locking
// are the embedded lock layer's (see lockedNetwork) — the same one
// ConcurrentNetwork embeds; this type adds only the log.
//
// The directory holds numbered WAL segments plus checkpoint-<index>.snap
// files, where <index> is the count of logged WAL frames the checkpoint
// state includes (one frame per Activate; one frame per group-committed
// ActivateBatch chunk). Recover loads the newest checkpoint that passes
// its CRC and replays the WAL tail from exactly that index.
type DurableNetwork struct {
	lockedNetwork
	w               *wal.Writer
	dir             string
	cfg             DurableConfig
	met             *durableMetrics // nil unless cfg.Obs was set; all methods nil-safe
	sinceCheckpoint int
	closed          bool
	// fsyncAccum collects, under mu, the wall-clock seconds the WAL spent
	// in fsync while the current frame was being appended (the writer is
	// only driven with mu held). A traced frame reads it to attribute its
	// fsync share as a wal.fsync leaf span.
	fsyncAccum float64
	// traces remembers which trace ID each recently appended WAL frame was
	// logged under, so the replication sender can ship the context with the
	// frame and followers can stitch their apply spans to the primary's
	// trace. Internally synchronized — the sender reads it off-lock.
	traces traceRing
}

// traceRingSize bounds how many appended frames keep their trace ID for
// replication shipping; older entries are overwritten. Subscribers tail
// the WAL within a frame or two of the append under normal operation, so
// a small window loses trace IDs only for followers that are already far
// behind (they still get the frames — just untraced).
const traceRingSize = 1024

// traceRing is a fixed-size map from WAL frame index to the trace ID the
// frame was appended under. It has its own lock so the replication
// sender's lookups never contend with ingest for the network's mutex.
type traceRing struct {
	mu  sync.Mutex
	idx [traceRingSize]uint64 // frame index + 1; 0 = empty slot
	ids [traceRingSize]uint64
	pos int
}

func (r *traceRing) record(index, id uint64) {
	r.mu.Lock()
	r.idx[r.pos] = index + 1
	r.ids[r.pos] = id
	r.pos = (r.pos + 1) % traceRingSize
	r.mu.Unlock()
}

func (r *traceRing) lookup(index uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.idx {
		if r.idx[i] == index+1 {
			return r.ids[i]
		}
	}
	return 0
}

const activationRecordSize = 16 // u uint32, v uint32, t float64 bits

// encodeFrame serializes acts as one WAL frame payload: a 16-byte record
// per activation, so a lone Activate and a one-element batch log the same
// bytes.
func encodeFrame(acts []Activation) []byte {
	frame := make([]byte, len(acts)*activationRecordSize)
	for i, a := range acts {
		rec := frame[i*activationRecordSize:]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(a.U))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(a.V))
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(a.T))
	}
	return frame
}

// decodeFrame is encodeFrame's inverse, shared by Recover and ApplyFrame
// so local replay and wire replay cannot drift.
func decodeFrame(rec []byte) ([]Activation, error) {
	if len(rec) == 0 || len(rec)%activationRecordSize != 0 {
		return nil, fmt.Errorf("anc: frame of %d bytes", len(rec))
	}
	acts := make([]Activation, len(rec)/activationRecordSize)
	for i := range acts {
		b := rec[i*activationRecordSize:]
		acts[i] = Activation{
			U: int(binary.LittleEndian.Uint32(b[0:4])),
			V: int(binary.LittleEndian.Uint32(b[4:8])),
			T: math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])),
		}
	}
	return acts, nil
}

func checkpointName(index uint64) string {
	return fmt.Sprintf("checkpoint-%016x.snap", index)
}

type checkpointInfo struct {
	index uint64
	path  string
}

func listCheckpoints(dir string) ([]checkpointInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cps []checkpointInfo
	for _, e := range entries {
		var index uint64
		if _, err := fmt.Sscanf(e.Name(), "checkpoint-%016x.snap", &index); err == nil &&
			e.Name() == checkpointName(index) {
			cps = append(cps, checkpointInfo{index: index, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].index < cps[j].index })
	return cps, nil
}

// NewDurable makes net durable in dir: it writes an initial checkpoint of
// the network as handed in and opens a fresh WAL. The directory is created
// if needed; if it already holds durable state the call fails — use
// Recover for that. The caller must stop using net directly.
func NewDurable(net *Network, dir string, cfg DurableConfig) (*DurableNetwork, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cps, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	if len(cps) > 0 {
		return nil, fmt.Errorf("anc: %s already holds durable state; use Recover", dir)
	}
	// Checkpoint first, then open the log: recovery requires a checkpoint
	// to replay onto, so an empty WAL without one is never observable.
	if err := writeCheckpoint(dir, 0, net.Save); err != nil {
		return nil, err
	}
	d := &DurableNetwork{dir: dir, cfg: cfg, met: newDurableMetrics(cfg.Obs)}
	if err := d.reset(net, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// reset points the facade at net, which holds the state checkpoint-<index>
// plus any replayed WAL tail describe: it opens the log at index, then
// instruments net (only now, so replay does not inflate the ingest
// counters) and wraps it. NewDurable, Recover and Restore all end here.
// The caller holds d.mu exclusively or has not shared d yet.
func (d *DurableNetwork) reset(net *Network, index uint64) error {
	opts := d.cfg.walOptions()
	// The fsync hook runs on the appending goroutine, which holds d.mu, so
	// the plain field add is safe.
	opts.OnFsync = func(seconds float64) { d.fsyncAccum += seconds }
	w, err := wal.OpenWriter(d.dir, index, opts)
	if err != nil {
		return err
	}
	net.Instrument(d.cfg.Obs)
	d.wrap(net)
	d.w = w
	d.acts, d.sinceCheckpoint = 0, 0
	return nil
}

// Recover rebuilds the durable network persisted in dir: it loads the
// newest checkpoint whose CRC verifies (falling back to the previous one
// if the newest is corrupt; corrupt checkpoint files are renamed aside
// with a .corrupt suffix), replays the WAL tail from the checkpoint's
// index — stopping cleanly at the first torn or corrupt frame — and
// reopens the log for appending, truncating that tail. The recovered
// in-memory state is exactly the reference state of the durably persisted
// activation prefix.
func Recover(dir string, cfg DurableConfig) (*DurableNetwork, error) {
	cps, err := listCheckpoints(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w in %s", ErrNoDurableState, dir)
		}
		return nil, err
	}
	if len(cps) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoDurableState, dir)
	}
	os.Remove(filepath.Join(dir, "checkpoint.tmp")) // a crashed half-written checkpoint
	d := &DurableNetwork{dir: dir, cfg: cfg, met: newDurableMetrics(cfg.Obs)}
	var lastErr error
	for i := len(cps) - 1; i >= 0; i-- {
		cp := cps[i]
		net, err := loadCheckpoint(cp.path)
		if err != nil {
			// Quarantine the corrupt file so checkpoint retention never
			// counts it among the healthy ones (pruning by index alone
			// could otherwise discard the last valid fallback), then try
			// the previous checkpoint.
			os.Rename(cp.path, cp.path+".corrupt")
			lastErr = err
			continue
		}
		var replayed uint64
		next, err := wal.Replay(dir, cp.index, func(_ uint64, rec []byte) error {
			acts, err := decodeFrame(rec)
			if err != nil {
				return err
			}
			if err := net.ActivateBatch(acts); err != nil {
				return err
			}
			replayed += uint64(len(acts))
			return nil
		})
		if err != nil {
			lastErr = err
			continue
		}
		// Open at the checkpoint's index, not at next: the WAL tail
		// [cp.index, next) was replayed into memory but is not covered by
		// any checkpoint yet, so it must survive on disk until the next
		// checkpoint — passing next would let OpenWriter discard it as
		// stale, losing acknowledged records on the next crash. The replayed
		// volume is reported through the dedicated recovery metrics.
		if err := d.reset(net, cp.index); err != nil {
			return nil, err
		}
		if d.w.NextIndex() != next {
			// The writer's scan and the replay disagree on where the log
			// ends — the directory changed underneath us. Fall back rather
			// than append at an inconsistent position.
			d.w.Close()
			lastErr = fmt.Errorf("anc: wal end moved during recovery: replayed to %d, writer at %d", next, d.w.NextIndex())
			continue
		}
		d.met.recovered(replayed)
		d.acts = replayed
		return d, nil
	}
	return nil, fmt.Errorf("anc: no usable checkpoint in %s: %w", dir, lastErr)
}

func loadCheckpoint(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //anclint:ignore droppederr read-only load; a close error cannot lose data
	return Load(f)
}

// checkIngest validates acts against the ingest contract of
// Network.Activate — existing edges, finite non-decreasing timestamps
// starting no earlier than Now — without modifying anything. The durable
// layer runs it before logging, so replay never sees a record the network
// would reject.
func (nw *Network) checkIngest(acts []Activation) error {
	g := nw.inner.Graph()
	prev := nw.Now()
	for i, a := range acts {
		if a.U < 0 || a.V < 0 || a.U >= g.N() || a.V >= g.N() ||
			g.FindEdge(graph.NodeID(a.U), graph.NodeID(a.V)) == graph.None {
			return fmt.Errorf("anc: batch[%d]: no edge (%d, %d)", i, a.U, a.V)
		}
		if math.IsNaN(a.T) || math.IsInf(a.T, 0) || a.T < prev {
			return fmt.Errorf("anc: batch[%d]: invalid activation timestamp %v (previous %v)", i, a.T, prev)
		}
		prev = a.T
	}
	return nil
}

// Activate validates the record, appends it to the WAL and then applies it
// to the in-memory network (log-then-apply). A nil return means the
// activation is applied and — under SyncAlways — durable; under
// SyncInterval/SyncNever it is durable after the next fsync. WAL errors
// leave the in-memory network unchanged.
func (d *DurableNetwork) Activate(u, v int, t float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingestLocked([]Activation{{U: u, V: v, T: t}}, trace.SpanHandle{})
}

// maxBatchFrame bounds how many activations go into one WAL frame: 1<<16
// records × 16 bytes = 1 MiB per frame, well under the WAL's 16 MiB record
// ceiling. Larger batches are split into several frames.
const maxBatchFrame = 1 << 16

// ActivateBatch is the group-commit ingest path: the whole batch is
// validated, encoded into a single WAL frame (one Append — under
// SyncAlways one fsync instead of one per activation), and then applied to
// the in-memory network exactly as replay will apply that frame. A nil
// return means every activation in the batch is applied and, under
// SyncAlways, durable as a unit; validation failures reject the batch
// before anything is logged, and WAL errors leave the in-memory network
// unchanged.
func (d *DurableNetwork) ActivateBatch(batch []Activation) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingestLocked(batch, trace.SpanHandle{})
}

// ActivateBatchTraced is ActivateBatch under an in-flight request span: the
// WAL stage is recorded as a "wal.append" child with a "wal.fsync" leaf for
// the batch's fsync share, the in-memory apply as "core.apply" (under which
// the core pipeline records pyramid.repair and core.invalidate), and the
// frames' trace ID is remembered so the replication sender can ship it. A
// zero handle degrades to plain ActivateBatch.
func (d *DurableNetwork) ActivateBatchTraced(batch []Activation, sp trace.SpanHandle) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingestLocked(batch, sp)
}

// ingestLocked is local ingest under d.mu: the whole batch is validated
// before its first frame is logged, so a batch that spans several frames
// is still rejected as a unit; each frame is then committed in turn.
func (d *DurableNetwork) ingestLocked(batch []Activation, sp trace.SpanHandle) error {
	if d.closed {
		return ErrClosed
	}
	if err := d.net.checkIngest(batch); err != nil {
		return err
	}
	for off := 0; off < len(batch); off += maxBatchFrame {
		chunk := batch[off:min(off+maxBatchFrame, len(batch))]
		if err := d.commitFrame(chunk, encodeFrame(chunk), sp); err != nil {
			return err
		}
	}
	return nil
}

// commitFrame is the durable layer's one write path, shared by local
// ingest and ApplyFrame: append the frame to the WAL, apply it as one
// batch (the call Recover's replay makes), count it, and
// checkpoint when the configured cadence is due. The caller holds d.mu
// exclusively and has validated acts, of which payload is the encoding.
func (d *DurableNetwork) commitFrame(acts []Activation, payload []byte, sp trace.SpanHandle) error {
	timed := d.met != nil || sp.Active()
	var walStart time.Time
	if timed {
		walStart = time.Now()
	}
	wsp := sp.StartChild("wal.append")
	d.fsyncAccum = 0
	index, err := d.w.Append(payload)
	if err != nil {
		wsp.Fail()
		wsp.End()
		return fmt.Errorf("anc: wal: %w", err)
	}
	if wsp.Active() && d.fsyncAccum > 0 {
		wsp.Leaf("wal.fsync", time.Duration(d.fsyncAccum*float64(time.Second)))
	}
	wsp.End()
	if timed {
		d.met.walAppend(time.Since(walStart).Seconds())
	}
	if tid := sp.TraceID(); tid != 0 {
		d.traces.record(index, tid)
	}
	csp := sp.StartChild("core.apply")
	if err := d.net.ActivateBatchTraced(acts, csp); err != nil {
		csp.Fail()
		csp.End()
		return err
	}
	csp.End()
	d.met.batchLogged(len(acts))
	d.acts += uint64(len(acts))
	d.sinceCheckpoint += len(acts)
	if d.cfg.CheckpointEvery > 0 && d.sinceCheckpoint >= d.cfg.CheckpointEvery {
		return d.checkpointLocked()
	}
	return nil
}

// Sync fsyncs the WAL, making every acknowledged activation durable — the
// explicit barrier for SyncInterval/SyncNever configurations.
func (d *DurableNetwork) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.w.Sync()
}

// Checkpoint atomically persists the current network state and truncates
// the WAL prefix it makes redundant: the snapshot is written to a temp
// file, fsynced, then renamed into place, so a crash mid-checkpoint leaves
// the previous checkpoint intact. The two newest checkpoints are retained
// (the older as a fallback should the newer be corrupted at rest); WAL
// segments wholly below the older one are deleted.
func (d *DurableNetwork) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked()
}

func (d *DurableNetwork) checkpointLocked() error {
	t := d.met.checkpointStart()
	if err := writeCheckpoint(d.dir, d.w.NextIndex(), d.net.Save); err != nil {
		return err
	}
	d.sinceCheckpoint = 0
	cps, err := listCheckpoints(d.dir)
	if err != nil {
		return err
	}
	for len(cps) > 2 {
		if err := os.Remove(cps[0].path); err != nil {
			return err
		}
		cps = cps[1:]
	}
	if err := d.w.TruncateBefore(cps[0].index); err != nil {
		return err
	}
	t.Stop() // successful checkpoints only; failures abort mid-operation
	return nil
}

// writeCheckpoint persists whatever write produces — Network.Save, or a
// snapshot shipped by a primary — as dir/checkpoint-<index>.snap via the
// write-temp / fsync / rename dance. Save only reads the network, so a
// checkpoint never changes what the network does next.
func writeCheckpoint(dir string, index uint64, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, "checkpoint.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName(index))); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable;
// best-effort (some platforms refuse to fsync directories).
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync() //anclint:ignore droppederr best-effort by contract: some platforms refuse to fsync directories
		f.Close()
	}
}

// Close checkpoints nothing: it fsyncs and closes the WAL and releases the
// index worker pool (when the network was built with Config.Parallel).
// Call Checkpoint first for a fast next recovery.
//
// Close is idempotent: a signal handler and the normal exit path may both
// call it, and every call after the first returns nil without touching the
// already-closed log. Later mutating calls (Activate, ActivateBatch, Sync,
// Checkpoint) return ErrClosed; queries keep working against the in-memory
// state.
func (d *DurableNetwork) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.net.Close()
	return d.w.Close()
}

// LoggedActivations returns how many log frames have ever been accepted
// into the WAL (the next WAL index). A per-op Activate is one frame; a
// group-committed ActivateBatch is one frame regardless of batch size —
// for the count of individual activations applied, see Stats.
func (d *DurableNetwork) LoggedActivations() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w.NextIndex()
}

// TraceOf reports the trace ID under which WAL frame index was appended —
// 0 when the frame was untraced or has aged out of the bounded recording
// window. The replication sender uses it to ship trace context alongside
// frames so follower applies stitch into the primary's trace. Lock-free
// with respect to the network's mutex (the ring is internally
// synchronized), so a slow sender never stalls ingest.
//
//anclint:ignore lockdiscipline the trace ring carries its own mutex; reading it off d.mu is the point
func (d *DurableNetwork) TraceOf(index uint64) uint64 { return d.traces.lookup(index) }

// DurableActivations returns how many logged frames are known to have
// been fsynced.
func (d *DurableNetwork) DurableActivations() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.w.DurableIndex()
}

// Unwrap returns the wrapped network for single-threaded, read-only use —
// e.g. feeding query helpers that take a *Network. Mutating it directly
// bypasses the log and forfeits the durability guarantee.
//
//anclint:ignore lockdiscipline deliberately unsynchronized escape hatch; the doc comment transfers the locking obligation to the caller
func (d *DurableNetwork) Unwrap() *Network { return d.net }
