package decay

import (
	"testing"
)

func TestAccessors(t *testing.T) {
	c := NewClock(0.25)
	if c.Lambda() != 0.25 {
		t.Fatalf("Lambda = %v", c.Lambda())
	}
	c.Advance(3)
	if c.Now() != 3 {
		t.Fatalf("Now = %v", c.Now())
	}
	a := NewActiveness(c, 2, 1, 1, func(int32) (int32, int32) { return 0, 1 })
	if a.Clock() != c {
		t.Fatal("Clock accessor wrong")
	}
}

func TestRestoreTime(t *testing.T) {
	c := NewClock(0.1)
	c.RestoreTime(10, 10, 3)
	if c.Now() != 10 || c.Anchor() != 10 {
		t.Fatalf("restore: now=%v anchor=%v", c.Now(), c.Anchor())
	}
	if c.G() != 1 || c.Pending() != 3 {
		t.Fatalf("after restore: g = %v, pending = %d; want 1, 3", c.G(), c.Pending())
	}
	// Anchor after now panics.
	defer func() {
		if recover() == nil {
			t.Fatal("anchor > now accepted")
		}
	}()
	c.RestoreTime(5, 8, 0)
}

func TestActivenessRestore(t *testing.T) {
	c := NewClock(0.2)
	ends := func(e int32) (int32, int32) { return e, e + 1 } // path 0-1-2
	a := NewActiveness(c, 3, 2, 1, ends)
	a.Restore([]float64{3, 5})
	if a.Anchored(0) != 3 || a.Anchored(1) != 5 {
		t.Fatalf("edge values wrong: %v %v", a.Anchored(0), a.Anchored(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	a.Restore([]float64{1})
}
