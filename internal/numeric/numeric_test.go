package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {17, 13, 1},
		{-12, 18, 6}, {12, -18, 6}, {1, 1, 1}, {100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCM(t *testing.T) {
	cases := []struct {
		a, b, want int64
		ok         bool
	}{
		{0, 5, 0, true}, {4, 6, 12, true}, {7, 13, 91, true},
		{1 << 40, 1 << 40, 1 << 40, true},
		{math.MaxInt64, 2, 0, false},
	}
	for _, c := range cases {
		got, ok := LCM(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("LCM(%d,%d) = %d,%v want %d,%v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestGCDDividesBoth(t *testing.T) {
	f := func(a, b int64) bool {
		a %= 1 << 30
		b %= 1 << 30
		g := GCD(a, b)
		if g == 0 {
			return a == 0 && b == 0
		}
		return a%g == 0 && b%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAddChecked(t *testing.T) {
	if v, ok := MulChecked(1<<32, 1<<32); ok {
		t.Errorf("MulChecked(2^32,2^32) = %d, want overflow", v)
	}
	if v, ok := MulChecked(1<<31, 1<<31); !ok || v != 1<<62 {
		t.Errorf("MulChecked(2^31,2^31) = %d,%v, want 2^62", v, ok)
	}
	if v, ok := MulChecked(3, 7); !ok || v != 21 {
		t.Errorf("MulChecked(3,7) = %d,%v", v, ok)
	}
	if v, ok := AddChecked(math.MaxInt64, 1); ok {
		t.Errorf("AddChecked(max,1) = %d, want overflow", v)
	}
	if v, ok := AddChecked(40, 2); !ok || v != 42 {
		t.Errorf("AddChecked(40,2) = %d,%v", v, ok)
	}
}

func TestCeilFloorDiv(t *testing.T) {
	cases := []struct{ a, b, ceil, floor int64 }{
		{0, 5, 0, 0}, {1, 5, 1, 0}, {5, 5, 1, 1}, {6, 5, 2, 1},
		{-1, 5, 0, -1}, {-5, 5, -1, -1}, {-6, 5, -1, -2},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.floor {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if c.a >= 0 {
			if got := CeilDiv(c.a, c.b); got != c.ceil {
				t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
			}
		}
	}
}
