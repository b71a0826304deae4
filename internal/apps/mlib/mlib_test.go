package mlib

import (
	"testing"

	"github.com/dtbgc/dtbgc/internal/mheap"
	"github.com/dtbgc/dtbgc/internal/xrand"
)

func newRaw() (Raw, *mheap.Heap) {
	h := mheap.New()
	return Raw{H: h}, h
}

func TestStrings(t *testing.T) {
	a, h := newRaw()
	s := NewString(a, "hello, heap")
	if StringVal(h, s) != "hello, heap" {
		t.Fatalf("got %q", StringVal(h, s))
	}
	empty := NewString(a, "")
	if StringVal(h, empty) != "" {
		t.Fatal("empty string mangled")
	}
}

func TestBoxes(t *testing.T) {
	a, h := newRaw()
	b := NewBox(a, -42)
	if BoxVal(h, b) != -42 {
		t.Fatalf("BoxVal = %d", BoxVal(h, b))
	}
	SetBox(h, b, 1<<40)
	if BoxVal(h, b) != 1<<40 {
		t.Fatalf("BoxVal = %d", BoxVal(h, b))
	}
}

func TestVectors(t *testing.T) {
	a, h := newRaw()
	v := NewVector(a, 5)
	if VLen(h, v) != 5 {
		t.Fatalf("VLen = %d", VLen(h, v))
	}
	b := NewBox(a, 9)
	VSet(h, v, 3, b)
	if VAt(h, v, 3) != b || VAt(h, v, 0) != mheap.Nil {
		t.Fatal("vector get/set wrong")
	}
}

func TestDictBasics(t *testing.T) {
	a, h := newRaw()
	d := NewDict(a, 8)
	v1, v2 := NewBox(a, 1), NewBox(a, 2)
	d.Set("alpha", v1)
	d.Set("beta", v2)
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got, ok := d.Get("alpha"); !ok || got != v1 {
		t.Fatal("Get alpha failed")
	}
	if _, ok := d.Get("gamma"); ok {
		t.Fatal("phantom key")
	}
	// Replacement does not grow the table.
	d.Set("alpha", v2)
	if got, _ := d.Get("alpha"); got != v2 || d.Len() != 2 {
		t.Fatal("replace failed")
	}
	_ = h
}

func TestDictManyKeysAndCollisions(t *testing.T) {
	a, h := newRaw()
	d := NewDict(a, 4) // tiny table forces collisions
	r := xrand.New(5)
	want := map[string]int64{}
	for i := 0; i < 200; i++ {
		key := string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))) + string(rune('0'+r.Intn(10)))
		v := r.Int63()
		want[key] = v
		d.Set(key, NewBox(a, v))
	}
	if d.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(want))
	}
	for k, v := range want {
		got, ok := d.Get(k)
		if !ok || BoxVal(h, got) != v {
			t.Fatalf("key %q: got %v ok=%v", k, got, ok)
		}
	}
	if len(d.Keys()) != len(want) {
		t.Fatalf("Keys() returned %d", len(d.Keys()))
	}
}

func TestDictFreeAll(t *testing.T) {
	a, h := newRaw()
	d := NewDict(a, 8)
	vals := make([]mheap.Ref, 0, 20)
	for i := 0; i < 20; i++ {
		v := NewBox(a, int64(i))
		vals = append(vals, v)
		d.Set(string(rune('a'+i)), v)
	}
	d.FreeAll()
	// Only the 20 value boxes remain.
	if h.NumObjects() != 20 {
		t.Fatalf("%d objects remain, want 20", h.NumObjects())
	}
	for _, v := range vals {
		if !h.Contains(v) {
			t.Fatal("value freed by FreeAll")
		}
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestNatDecimalRoundTrip(t *testing.T) {
	a, h := newRaw()
	cases := []string{"0", "1", "42", "4294967295", "4294967296",
		"18446744073709551615", "18446744073709551616",
		"1522605027922533360535618378132637429718068114961380688657908494580122963258952897654000350692006139"}
	for _, s := range cases {
		n, err := NatFromDecimal(a, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := NatToDecimal(h, n); got != s {
			t.Errorf("round trip %s -> %s", s, got)
		}
	}
}

func TestNatFromDecimalRejects(t *testing.T) {
	a, _ := newRaw()
	for _, s := range []string{"", "12a3", "-5", " 1"} {
		if _, err := NatFromDecimal(a, s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestNatUint64RoundTrip(t *testing.T) {
	a, h := newRaw()
	for _, v := range []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		n := NatFromUint64(a, v)
		got, ok := NatToUint64(h, n)
		if !ok || got != v {
			t.Errorf("round trip %d -> %d ok=%v", v, got, ok)
		}
	}
	big, _ := NatFromDecimal(a, "340282366920938463463374607431768211456") // 2^128
	if _, ok := NatToUint64(h, big); ok {
		t.Error("2^128 fit in uint64")
	}
}

func TestNatCmp(t *testing.T) {
	a, h := newRaw()
	x := NatFromUint64(a, 100)
	y := NatFromUint64(a, 200)
	z := NatFromUint64(a, 100)
	if NatCmp(h, x, y) != -1 || NatCmp(h, y, x) != 1 || NatCmp(h, x, z) != 0 {
		t.Fatal("NatCmp wrong")
	}
	big, _ := NatFromDecimal(a, "99999999999999999999")
	if NatCmp(h, x, big) != -1 {
		t.Fatal("length comparison wrong")
	}
}

func TestNatArithmeticSmall(t *testing.T) {
	a, h := newRaw()
	r := xrand.New(11)
	for i := 0; i < 300; i++ {
		xv := r.Uint64() >> 33
		yv := r.Uint64() >> 33
		x, y := NatFromUint64(a, xv), NatFromUint64(a, yv)
		sum, _ := NatToUint64(h, NatAdd(a, x, y))
		if sum != xv+yv {
			t.Fatalf("add %d+%d = %d", xv, yv, sum)
		}
		prod, _ := NatToUint64(h, NatMul(a, x, y))
		if prod != xv*yv {
			t.Fatalf("mul %d*%d = %d", xv, yv, prod)
		}
		if xv >= yv {
			diff, _ := NatToUint64(h, NatSub(a, x, y))
			if diff != xv-yv {
				t.Fatalf("sub %d-%d = %d", xv, yv, diff)
			}
		}
		if yv != 0 {
			mod, _ := NatToUint64(h, NatMod(a, x, y))
			if mod != xv%yv {
				t.Fatalf("mod %d%%%d = %d, want %d", xv, yv, mod, xv%yv)
			}
		}
	}
}

func TestNatSubUnderflowPanics(t *testing.T) {
	a, _ := newRaw()
	x, y := NatFromUint64(a, 1), NatFromUint64(a, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	NatSub(a, x, y)
}

func TestNatModByZeroPanics(t *testing.T) {
	a, _ := newRaw()
	x, z := NatFromUint64(a, 5), NatFromUint64(a, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mod by zero did not panic")
		}
	}()
	NatMod(a, x, z)
}

func TestNatBigMultiplication(t *testing.T) {
	a, h := newRaw()
	// (2^64+1)^2 = 2^128 + 2^65 + 1
	x, _ := NatFromDecimal(a, "18446744073709551617")
	sq := NatMul(a, x, x)
	want := "340282366920938463500268095579187314689"
	if got := NatToDecimal(h, sq); got != want {
		t.Fatalf("square = %s, want %s", got, want)
	}
}

func TestNatMulMod(t *testing.T) {
	a, h := newRaw()
	x, _ := NatFromDecimal(a, "123456789012345678901234567890")
	y, _ := NatFromDecimal(a, "987654321098765432109876543210")
	m, _ := NatFromDecimal(a, "1000000007")
	got := NatToDecimal(h, NatMulMod(a, x, y, m))
	// (x*y) mod 1000000007 computed independently: x mod m = ?
	// Verify via small-mod arithmetic below instead of a literal.
	xm, _ := NatToUint64(h, NatMod(a, x, m))
	ym, _ := NatToUint64(h, NatMod(a, y, m))
	want := (xm * ym) % 1000000007
	gotN, _ := NatFromDecimal(a, got)
	gotV, _ := NatToUint64(h, gotN)
	if gotV != want {
		t.Fatalf("mulmod = %d, want %d", gotV, want)
	}
}

func TestNatGCD(t *testing.T) {
	a, h := newRaw()
	cases := []struct{ x, y, want uint64 }{
		{12, 18, 6}, {17, 5, 1}, {0, 7, 7}, {7, 0, 7}, {48, 36, 12},
		{1 << 40, 1 << 20, 1 << 20},
	}
	for _, c := range cases {
		g, _ := NatToUint64(h, NatGCD(a, NatFromUint64(a, c.x), NatFromUint64(a, c.y)))
		if g != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.x, c.y, g, c.want)
		}
	}
}

func TestNatSqrt(t *testing.T) {
	a, h := newRaw()
	cases := []struct{ x, want uint64 }{
		{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {15, 3}, {16, 4},
		{99, 9}, {100, 10}, {1 << 50, 1 << 25}, {(1 << 25) * (1 << 25), 1 << 25},
	}
	for _, c := range cases {
		got, _ := NatToUint64(h, NatSqrt(a, NatFromUint64(a, c.x)))
		if got != c.want {
			t.Errorf("sqrt(%d) = %d, want %d", c.x, got, c.want)
		}
	}
	// A big perfect square: (10^20)^2.
	sq, _ := NatFromDecimal(a, "10000000000000000000000000000000000000000")
	root := NatSqrt(a, sq)
	if got := NatToDecimal(h, root); got != "100000000000000000000" {
		t.Fatalf("big sqrt = %s", got)
	}
}

func TestNatSqrtProperty(t *testing.T) {
	a, h := newRaw()
	r := xrand.New(17)
	for i := 0; i < 50; i++ {
		v := r.Uint64() >> uint(r.Intn(40))
		n := NatFromUint64(a, v)
		s := NatSqrt(a, n)
		sv, _ := NatToUint64(h, s)
		// sv^2 <= v < (sv+1)^2
		if sv*sv > v {
			t.Fatalf("sqrt(%d) = %d too big", v, sv)
		}
		if (sv+1)*(sv+1) <= v && sv < 1<<31 {
			t.Fatalf("sqrt(%d) = %d too small", v, sv)
		}
	}
}

func TestNatOperationsAllocateOnHeap(t *testing.T) {
	// The point of mlib: arithmetic shows up as heap traffic.
	a, h := newRaw()
	before := h.NumObjects()
	x := NatFromUint64(a, 123456789)
	y := NatFromUint64(a, 987654321)
	NatMul(a, x, y)
	if h.NumObjects() != before+3 {
		t.Fatalf("expected 3 new heap objects, got %d", h.NumObjects()-before)
	}
}
