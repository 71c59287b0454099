// Package ring is the bounded, cursor-read event buffer that the
// network's vote-flip ring (the cluster-change feed, DESIGN.md §7) and the
// cluster-evolution tracker's event ring (§16) share.
//
// A ring is read through a cursor the caller holds, never drained: a read
// of the entries after since changes nothing, so it is safe to resend and
// gives every reader — and a follower that applied the same writes — the
// same answer. When full, a push overwrites the oldest entry; a cursor
// older than the oldest buffered entry is told exactly how many entries it
// missed.
package ring

import "sync/atomic"

// Cap is every ring's bound: a ring buffers its newest Cap entries.
const Cap = 1 << 16

// Ring is a bounded sequence with implicit sequence numbers: the i-th push
// (counting from 1) has sequence number i and, while buffered, sits at
// buf[(i-1) % Cap]. The zero value is an empty ring that grows on demand;
// Reserve allocates the whole bound up front, after which Push never
// allocates.
//
// Push is for one writer; Span and Since must not run concurrently with
// it. Seq and Overwritten are atomic loads, readable from any goroutine.
type Ring[T any] struct {
	buf []T // len(buf) == min(seq, Cap)
	seq atomic.Uint64
}

// Reserve allocates the ring's whole bound, so no later Push allocates.
func (r *Ring[T]) Reserve() {
	if cap(r.buf) < Cap {
		r.buf = append(make([]T, 0, Cap), r.buf...)
	}
}

// Push appends v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Push(v T) {
	s := r.seq.Load()
	if len(r.buf) < Cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[s%Cap] = v
	}
	r.seq.Store(s + 1)
}

// Seq returns the sequence number of the newest entry: the number of
// pushes ever made, 0 for an empty ring.
func (r *Ring[T]) Seq() uint64 { return r.seq.Load() }

// Overwritten returns the cumulative number of entries the ring overwrote
// — pushed, but no longer buffered.
func (r *Ring[T]) Overwritten() uint64 {
	if s := r.seq.Load(); s > Cap {
		return s - Cap
	}
	return 0
}

// Span returns the buffered entries with sequence numbers after since,
// oldest first, as two slices of the ring's own storage (b holds what
// wrapped past its end), together with the newest sequence number and
// missed: how many entries after since were overwritten before this read.
// A since at or past the newest entry yields no entries. Nothing is copied
// or allocated; the slices are valid until the next Push, and capped at
// their length, so appending to one cannot write into the ring.
func (r *Ring[T]) Span(since uint64) (a, b []T, seq, missed uint64) {
	seq = r.seq.Load()
	if oldest := seq - uint64(len(r.buf)); since < oldest {
		missed, since = oldest-since, oldest
	}
	if since >= seq {
		return nil, nil, seq, missed
	}
	first, k := int(since%Cap), int(seq-since)
	if end := first + k; end <= len(r.buf) {
		return r.buf[first:end:end], nil, seq, missed
	}
	wrap := first + k - len(r.buf)
	return r.buf[first:len(r.buf):len(r.buf)], r.buf[:wrap:wrap], seq, missed
}

// Since is Span copied into one new slice, the ring's only allocation on
// the read side.
func (r *Ring[T]) Since(since uint64) (out []T, seq, missed uint64) {
	a, b, seq, missed := r.Span(since)
	out = make([]T, len(a)+len(b))
	copy(out[copy(out, a):], b)
	return out, seq, missed
}
