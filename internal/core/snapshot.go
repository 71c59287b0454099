package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"anc/internal/decay"
	"anc/internal/graph"
	"anc/internal/pyramid"
	"anc/internal/similarity"
)

// snapshotV3 is the on-disk representation of a Network: everything its
// future depends on, as the network holds it. The similarity and
// activeness are anchored at Anchor, and the clock has counted Count
// activations toward its next rescale; ANCOR's last interval flush was at
// LastFlush; Pending lists the edges awaiting reinforcement (ANCOR, ANCF),
// and PendingWeights the weight the index holds for each — under ANCF the
// index lags the similarity on exactly those edges until the next Snapshot.
// The shortest-path forests are not stored: Load rebuilds them from Seeds
// and the index's weights.
type snapshotV3 struct {
	Opts           Options
	Now            float64
	Anchor         float64
	Count          int
	LastFlush      float64
	N              int32
	Edges          [][2]int32
	S              []float64
	Act            []float64
	Seeds          [][]int32
	Pending        []int32
	PendingWeights []float64
}

// Snapshot file layout (version 3):
//
//	8 bytes  fileMagic "ANCSNP2\n"
//	payload  gob(snapshotV3)
//	16 bytes trailer, little-endian:
//	           uint32  format version (snapshotVersion)
//	           uint64  payload byte count
//	           uint32  CRC32C (Castagnoli) of the payload
//
// Load verifies the trailer before the gob decoder ever sees the payload:
// a torn or bit-flipped snapshot is reported as corruption instead of
// being decoded into a silently wrong network. Any other version is
// refused.
const (
	fileMagic       = "ANCSNP2\n"
	snapshotVersion = 3
	trailerSize     = 4 + 8 + 4

	// maxIsolatedNodes bounds how far a snapshot's node count may exceed
	// what its edge list supports, so a corrupt header cannot demand a
	// multi-gigabyte allocation from a few bytes of input.
	maxIsolatedNodes = 1 << 20
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// Save serializes the network — graph, options, decayed state with its
// clock, pending reinforcement and index seed sets — so Load can
// reconstruct a network whose future is the same as this one's, then
// appends a version+CRC32C trailer so corruption is detected at load time.
// Save only reads: it flushes nothing and rescales nothing, so saving (and
// so checkpointing) never changes what the network does next, and two
// Saves with nothing in between write the same bytes. The shortest-path
// forests themselves are not stored; Load rebuilds them deterministically
// from the saved seeds and weights, trading O(index build) load time for a
// compact file.
func (nw *Network) Save(w io.Writer) error {
	s, act := nw.sim.ExportState()
	snap := snapshotV3{
		Opts:      nw.opts,
		Now:       nw.clock.Now(),
		Anchor:    nw.clock.Anchor(),
		Count:     nw.clock.Pending(),
		LastFlush: nw.lastFlush,
		N:         int32(nw.g.N()),
		S:         s,
		Act:       act,
		Pending:   nw.pending,
	}
	for _, e := range nw.pending {
		snap.PendingWeights = append(snap.PendingWeights, nw.ix.Weight(e))
	}
	for _, e := range nw.g.Edges() {
		snap.Edges = append(snap.Edges, [2]int32{e.U, e.V})
	}
	for _, seeds := range nw.ix.SeedSets() {
		snap.Seeds = append(snap.Seeds, append([]int32(nil), seeds...))
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&snap); err != nil {
		return err
	}
	if _, err := io.WriteString(w, fileMagic); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:4], snapshotVersion)
	binary.LittleEndian.PutUint64(trailer[4:12], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.Checksum(payload.Bytes(), snapshotCRC))
	_, err := w.Write(trailer[:])
	return err
}

// Load reconstructs a network saved with Save. The snapshot's CRC trailer
// is verified before decoding, and every decoded field is bounds-checked,
// so a torn, truncated or bit-flipped file yields an error — never a
// panic, an absurd allocation or a silently wrong network.
func Load(r io.Reader) (*Network, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	if !bytes.HasPrefix(body, []byte(fileMagic)) {
		return nil, fmt.Errorf("core: not an ANC snapshot")
	}
	body = body[len(fileMagic):]
	if len(body) < trailerSize {
		return nil, fmt.Errorf("core: snapshot truncated (no trailer)")
	}
	payload, trailer := body[:len(body)-trailerSize], body[len(body)-trailerSize:]
	version := binary.LittleEndian.Uint32(trailer[0:4])
	length := binary.LittleEndian.Uint64(trailer[4:12])
	crc := binary.LittleEndian.Uint32(trailer[12:16])
	if version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	if length != uint64(len(payload)) {
		return nil, fmt.Errorf("core: snapshot truncated: trailer says %d payload bytes, have %d", length, len(payload))
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != crc {
		return nil, fmt.Errorf("core: snapshot corrupt: CRC mismatch (got %08x, want %08x)", got, crc)
	}
	var snap snapshotV3
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return restore(&snap)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validate bounds-checks every decoded field before any of it is used to
// size an allocation or index a slice.
func (snap *snapshotV3) validate() error {
	if err := validateOptions(snap.Opts); err != nil {
		return fmt.Errorf("core: corrupt snapshot: %w", err)
	}
	if !finite(snap.Now) || snap.Now < 0 {
		return fmt.Errorf("core: corrupt snapshot: invalid time %v", snap.Now)
	}
	if !finite(snap.Anchor) || snap.Anchor > snap.Now {
		return fmt.Errorf("core: corrupt snapshot: anchor %v at time %v", snap.Anchor, snap.Now)
	}
	if snap.Count < 0 {
		return fmt.Errorf("core: corrupt snapshot: negative rescale count %d", snap.Count)
	}
	if !finite(snap.LastFlush) || snap.LastFlush > snap.Now {
		return fmt.Errorf("core: corrupt snapshot: last flush %v at time %v", snap.LastFlush, snap.Now)
	}
	if snap.N < 0 {
		return fmt.Errorf("core: corrupt snapshot: negative node count %d", snap.N)
	}
	if int64(snap.N) > 2*int64(len(snap.Edges))+maxIsolatedNodes {
		return fmt.Errorf("core: corrupt snapshot: implausible node count %d for %d edges", snap.N, len(snap.Edges))
	}
	if len(snap.S) != len(snap.Edges) || len(snap.Act) != len(snap.Edges) {
		return fmt.Errorf("core: snapshot state size mismatch")
	}
	for i, v := range snap.S {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("core: corrupt snapshot: similarity[%d] = %v", i, v)
		}
	}
	for i, v := range snap.Act {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("core: corrupt snapshot: activeness[%d] = %v", i, v)
		}
	}
	for i, set := range snap.Seeds {
		for _, s := range set {
			if s < 0 || s >= snap.N {
				return fmt.Errorf("core: corrupt snapshot: seed %d of set %d outside [0, %d)", s, i, snap.N)
			}
		}
	}
	if len(snap.PendingWeights) != len(snap.Pending) {
		return fmt.Errorf("core: corrupt snapshot: %d pending weights for %d pending edges", len(snap.PendingWeights), len(snap.Pending))
	}
	listed := make(map[int32]bool, len(snap.Pending))
	for i, e := range snap.Pending {
		if e < 0 || int(e) >= len(snap.Edges) || listed[e] {
			return fmt.Errorf("core: corrupt snapshot: pending[%d] = edge %d (out of range or listed twice)", i, e)
		}
		listed[e] = true
		if w := snap.PendingWeights[i]; !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("core: corrupt snapshot: pending weight[%d] = %v", i, w)
		}
	}
	return nil
}

// restore rebuilds the in-memory network from a decoded snapshot.
func restore(snap *snapshotV3) (*Network, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(int(snap.N))
	for _, e := range snap.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("core: corrupt snapshot: %w", err)
		}
	}
	g := b.Build()
	if len(snap.S) != g.M() || len(snap.Act) != g.M() {
		// Duplicate edges were merged by the builder: the per-edge state
		// no longer lines up.
		return nil, fmt.Errorf("core: snapshot state size mismatch")
	}
	opts := snap.Opts
	clock := decay.NewClock(opts.Lambda)
	if opts.RescaleEvery > 0 {
		clock.SetRescaleEvery(opts.RescaleEvery)
	}
	sim, err := similarity.New(g, clock, 1, opts.Similarity)
	if err != nil {
		return nil, err
	}
	sim.RestoreState(snap.S, snap.Act)
	clock.RestoreTime(snap.Now, snap.Anchor, snap.Count)
	nw := &Network{
		g:             g,
		opts:          opts,
		clock:         clock,
		sim:           sim,
		pending:       snap.Pending,
		pendingMark:   make([]bool, g.M()),
		batchEdgeMark: make([]bool, g.M()),
		lastFlush:     snap.LastFlush,
	}
	weights := make([]float64, g.M())
	for e := range weights {
		weights[e] = sim.Weight(graph.EdgeID(e))
	}
	for i, e := range snap.Pending {
		nw.pendingMark[e] = true
		weights[e] = snap.PendingWeights[i]
	}
	seedSets := make([][]graph.NodeID, len(snap.Seeds))
	for i, s := range snap.Seeds {
		seedSets[i] = s
	}
	nw.ix, err = pyramid.BuildWithSeeds(g, func(e graph.EdgeID) float64 { return weights[e] }, opts.Pyramid, seedSets)
	if err != nil {
		return nil, err
	}
	clock.Register(nw.ix)
	clock.Register(nw)
	return nw, nil
}
