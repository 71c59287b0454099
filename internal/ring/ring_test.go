package ring

import (
	"testing"
)

// fill pushes the sequence numbers from+1 .. to, so every entry names its
// own sequence number.
func fill(r *Ring[uint64], from, to uint64) {
	for s := from + 1; s <= to; s++ {
		r.Push(s)
	}
}

// check reads since and requires exactly the entries first..seq and the
// given missed count.
func check(t *testing.T, r *Ring[uint64], since, first, missed uint64) {
	t.Helper()
	got, seq, m := r.Since(since)
	if seq != r.Seq() || m != missed {
		t.Fatalf("since=%d: seq %d missed %d, want %d and %d", since, seq, m, r.Seq(), missed)
	}
	want := 0
	if seq >= first {
		want = int(seq - first + 1)
	}
	if len(got) != want {
		t.Fatalf("since=%d: %d entries, want %d (%d..%d)", since, len(got), want, first, seq)
	}
	for i, s := range got {
		if s != first+uint64(i) {
			t.Fatalf("since=%d: entry %d is %d, want %d", since, i, s, first+uint64(i))
		}
	}
}

// TestRingBeforeWrap: a ring below its bound buffers everything and
// misses nothing; a cursor at or past the newest entry reads nothing.
func TestRingBeforeWrap(t *testing.T) {
	var r Ring[uint64]
	check(t, &r, 0, 1, 0)
	fill(&r, 0, 100)
	check(t, &r, 0, 1, 0)
	check(t, &r, 57, 58, 0)
	check(t, &r, 100, 101, 0)
	check(t, &r, 1000, 101, 0)
	if r.Overwritten() != 0 {
		t.Fatalf("overwritten %d before the ring filled", r.Overwritten())
	}
}

// TestRingWrappedStaleCursor: past its bound the ring overwrites oldest
// first, and a cursor older than the oldest buffered entry is told exactly
// how many entries it lost.
func TestRingWrappedStaleCursor(t *testing.T) {
	var r Ring[uint64]
	const pushed = 2*Cap + 1234 // wrapped twice, oldest entry mid-buffer
	fill(&r, 0, pushed)
	oldest := uint64(pushed - Cap + 1)
	if r.Seq() != pushed || r.Overwritten() != oldest-1 {
		t.Fatalf("seq %d overwritten %d, want %d and %d", r.Seq(), r.Overwritten(), pushed, oldest-1)
	}
	check(t, &r, 0, oldest, oldest-1)
	check(t, &r, 17, oldest, oldest-1-17)
	check(t, &r, oldest-2, oldest, 1)
	check(t, &r, oldest-1, oldest, 0)
	check(t, &r, oldest+5, oldest+6, 0)
	// Cursors on both sides of the storage's end.
	check(t, &r, pushed-1000, pushed-999, 0)
	check(t, &r, pushed-1234-3, pushed-1234-2, 0)
	check(t, &r, pushed, pushed+1, 0)
	// A read changes nothing: the same cursor answers the same.
	check(t, &r, 0, oldest, oldest-1)
}

// TestRingSuffixAllocatesOnce: a cursor three behind the newest entry of a
// full ring reads exactly those three entries into one allocation, and a
// push into a reserved ring allocates nothing.
func TestRingSuffixAllocatesOnce(t *testing.T) {
	var r Ring[uint64]
	r.Reserve()
	var next uint64
	if n := testing.AllocsPerRun(100, func() { next++; r.Push(next) }); n != 0 {
		t.Fatalf("Push into a reserved ring allocates %v times", n)
	}
	fill(&r, next, Cap+10)
	seq := r.Seq()
	var tail []uint64
	if n := testing.AllocsPerRun(100, func() { tail, _, _ = r.Since(seq - 3) }); n != 1 {
		t.Fatalf("a 3-entry read allocates %v times, want 1", n)
	}
	if len(tail) != 3 || cap(tail) != 3 || tail[0] != seq-2 || tail[2] != seq {
		t.Fatalf("since=seq-3: %v (cap %d), want the last 3", tail, cap(tail))
	}
	if n := testing.AllocsPerRun(100, func() { r.Span(0) }); n != 0 {
		t.Fatalf("Span allocates %v times", n)
	}
}
