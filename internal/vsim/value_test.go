package vsim

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// randValue generates a random defined value of width w.
func randValue(rng *rand.Rand, w int) Value {
	v := NewZero(w)
	for i := range v.A {
		v.A[i] = rng.Uint64()
	}
	v.norm()
	return v
}

// rand4State generates a value with random x/z bits too.
func rand4State(rng *rand.Rand, w int) Value {
	v := randValue(rng, w)
	for i := range v.B {
		v.B[i] = rng.Uint64() & rng.Uint64() // ~25% unknown bits
	}
	v.norm()
	return v
}

func TestAddSubInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		w := 1 + rng.Intn(130)
		a, b := randValue(rng, w), randValue(rng, w)
		if got := Sub(Add(a, b), b); !got.Equal4(a) {
			t.Fatalf("w=%d: (a+b)-b != a: %s vs %s", w, got, a)
		}
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		w := 1 + rng.Intn(130)
		a, b := randValue(rng, w), randValue(rng, w)
		if !Add(a, b).Equal4(Add(b, a)) {
			t.Fatalf("w=%d: a+b != b+a", w)
		}
	}
}

func TestMulMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		w := 4 + rng.Intn(60)
		a := randValue(rng, w)
		n := rng.Intn(9)
		sum := NewZero(w)
		for j := 0; j < n; j++ {
			sum = Add(sum, a)
		}
		if got := Mul(a, FromUint64(uint64(n), w)); !got.Equal4(sum) {
			t.Fatalf("w=%d n=%d: a*n != repeated add: %s vs %s", w, n, got, sum)
		}
	}
}

func TestDivModIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(100)
		a, b := randValue(rng, w), randValue(rng, w)
		if b.IsZero() {
			continue
		}
		q, r := DivMod(a, b)
		// a == q*b + r
		back := Add(Mul(q, b), r)
		if !back.Equal4(a) {
			t.Fatalf("w=%d: q*b+r != a: %s vs %s", w, back, a)
		}
		// r < b (unsigned)
		if cmp, ok := Cmp(r, b, false); !ok || cmp >= 0 {
			t.Fatalf("w=%d: remainder not smaller than divisor", w)
		}
	}
}

func TestDeMorganProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(130)
		a, b := rand4State(rng, w), rand4State(rng, w)
		lhs := Not(And(a, b))
		rhs := Or(Not(a), Not(b))
		if !lhs.Equal4(rhs) {
			t.Fatalf("w=%d: ~(a&b) != ~a|~b: %s vs %s", w, lhs, rhs)
		}
	}
}

func TestDoubleNegationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(130)
		a := rand4State(rng, w)
		// ~~a == a only for defined bits; x stays x, z becomes x.
		got := Not(Not(a))
		for bit := 0; bit < w; bit++ {
			aa, ab := a.Bit(bit)
			ga, gb := got.Bit(bit)
			if ab == 0 {
				if ga != aa || gb != 0 {
					t.Fatalf("defined bit %d changed under ~~", bit)
				}
			} else if gb != 1 {
				t.Fatalf("unknown bit %d became defined under ~~", bit)
			}
		}
	}
}

func TestShiftInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		w := 8 + rng.Intn(120)
		n := rng.Intn(w)
		a := randValue(rng, w)
		// (a << n) >> n clears the top n bits.
		got := ShiftRight(ShiftLeft(a, n), n, false)
		want := a.Clone()
		for bit := w - n; bit < w; bit++ {
			want.setBit(bit, 0, 0)
		}
		if !got.Equal4(want) {
			t.Fatalf("w=%d n=%d: shift inverse broken", w, n)
		}
	}
}

func TestConcatSliceInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		wa, wb := 1+rng.Intn(70), 1+rng.Intn(70)
		a, b := rand4State(rng, wa), rand4State(rng, wb)
		cat := ConcatValues([]Value{a, b}) // a is more significant
		gotB := Slice(cat, 0, wb)
		gotA := Slice(cat, wb, wa)
		if !gotA.Equal4(a) || !gotB.Equal4(b) {
			t.Fatalf("concat/slice inverse broken (wa=%d wb=%d)", wa, wb)
		}
	}
}

func TestInsertSliceInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		w := 8 + rng.Intn(100)
		base := rand4State(rng, w)
		lo := rng.Intn(w)
		sw := 1 + rng.Intn(w-lo)
		piece := rand4State(rng, sw)
		ins := Insert(base, lo, piece)
		if got := Slice(ins, lo, sw); !got.Equal4(piece) {
			t.Fatalf("insert/slice inverse broken (w=%d lo=%d sw=%d)", w, lo, sw)
		}
		// Bits outside the window unchanged.
		for bit := 0; bit < lo; bit++ {
			ba, bb := base.Bit(bit)
			ia, ib := ins.Bit(bit)
			if ba != ia || bb != ib {
				t.Fatalf("insert touched bit %d below window", bit)
			}
		}
	}
}

func TestResizeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 300; i++ {
		w := 1 + rng.Intn(100)
		a := rand4State(rng, w)
		grown := a.Resize(w + 1 + rng.Intn(64))
		back := grown.Resize(w)
		if !back.Equal4(a) {
			t.Fatalf("resize round trip broken (w=%d): %s vs %s", w, back, a)
		}
	}
}

func TestSignExtensionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		w := 2 + rng.Intn(62)
		a := randValue(rng, w)
		a.Signed = true
		wide := a.Resize(w + 1 + rng.Intn(64))
		ai, ok1 := a.Int64()
		wi, ok2 := wide.Int64()
		if !ok1 || !ok2 || ai != wi {
			t.Fatalf("sign extension changed value: %d vs %d (w=%d)", ai, wi, w)
		}
	}
}

func TestXPoisonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(64)
		a := randValue(rng, w)
		x := NewValue(w) // all x
		if Add(a, x).IsDefined() || Sub(a, x).IsDefined() || Mul(a, x).IsDefined() {
			t.Fatal("arithmetic on x must poison")
		}
		q, r := DivMod(a, x)
		if q.IsDefined() || r.IsDefined() {
			t.Fatal("division on x must poison")
		}
	}
}

func TestResolveProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		w := 1 + rng.Intn(64)
		a := randValue(rng, w)
		// A single driver wins outright.
		if got := Resolve([]Value{a}, w); !got.Equal4(a) {
			t.Fatal("single driver must pass through")
		}
		// Agreeing drivers win; adding z drivers changes nothing.
		z := NewZ(w)
		if got := Resolve([]Value{a, a, z}, w); !got.Equal4(a) {
			t.Fatal("agreeing drivers + z must pass through")
		}
		// Resolution is order-independent.
		b := randValue(rng, w)
		r1 := Resolve([]Value{a, b}, w)
		r2 := Resolve([]Value{b, a}, w)
		if !r1.Equal4(r2) {
			t.Fatal("resolution must be symmetric")
		}
	}
}

func TestDecimalStringAgainstFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		u := rng.Uint64() >> uint(rng.Intn(40))
		v := FromUint64(u, 64)
		if got, want := DecimalString(v), fmtUint(u); got != want {
			t.Fatalf("DecimalString(%d) = %s", u, got)
		}
	}
	// Signed negative.
	v := FromInt64(-42, 16)
	if got := DecimalString(v); got != "-42" {
		t.Fatalf("signed decimal: %s", got)
	}
	// Unknowns.
	if got := DecimalString(NewValue(8)); got != "x" {
		t.Fatalf("all-x decimal: %s", got)
	}
	if got := DecimalString(NewZ(8)); got != "z" {
		t.Fatalf("all-z decimal: %s", got)
	}
}

func fmtUint(u uint64) string {
	if u == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	return string(buf[i:])
}

func TestHexOctFormatting(t *testing.T) {
	v := FromUint64(0xDEADBEEF, 32)
	if got := hexString(v, false); got != "deadbeef" {
		t.Fatalf("hex: %s", got)
	}
	if got := hexString(FromUint64(0xF, 32), true); got != "f" {
		t.Fatalf("trimmed hex: %s", got)
	}
	if got := octString(FromUint64(0o755, 9), false); got != "755" {
		t.Fatalf("oct: %s", got)
	}
	// A nibble with unknown bits renders as x/X.
	mixed := ParseBits("1x10")
	h := hexString(mixed, false)
	if h != "X" {
		t.Fatalf("mixed nibble: %q", h)
	}
	allZ := ParseBits("zzzz")
	if got := hexString(allZ, false); got != "z" {
		t.Fatalf("z nibble: %q", got)
	}
}

// Every four-state hex digit and octal digit against IEEE 1364 §17.1.1.4,
// stated on the digit's text: a digit when no bit is unknown, x when all are
// x, z when all are z, Z when some are z and none x, X otherwise. (Until
// PR 22 a nibble holding both x and z printed Z, and octal knew only x.)
func TestRadixDigitsFollowIEEE1364(t *testing.T) {
	for _, bits := range []int{4, 3} {
		combos := 1
		for range bits {
			combos *= 4
		}
		for c := 0; c < combos; c++ {
			group := make([]byte, bits)
			for k, cc := 0, c; k < bits; k, cc = k+1, cc/4 {
				group[k] = "01xz"[cc%4]
			}
			text := string(group)
			nx, nz := strings.Count(text, "x"), strings.Count(text, "z")
			var want string
			switch {
			case nx+nz == 0:
				u, _ := strconv.ParseUint(text, 2, 8)
				want = strconv.FormatUint(u, 1<<bits)
			case nx == bits:
				want = "x"
			case nz == bits:
				want = "z"
			case nx == 0:
				want = "Z"
			default:
				want = "X"
			}
			// One digit on its own, and as the middle digit of three.
			got := radixString(ParseBits(text), bits, false)
			wide := radixString(ParseBits("1"+text+strings.Repeat("0", bits)), bits, false)
			if got != want || wide != "1"+want+"0" {
				t.Fatalf("%d-bit digit %q prints %q (and %q between 1 and 0), want %q", bits, text, got, wide, want)
			}
		}
	}
}

func TestParseBitsRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "x", "z", "10x1z0", "1111000010zx"}
	for _, s := range cases {
		if got := ParseBits(s).String(); got != s {
			t.Fatalf("ParseBits(%q).String() = %q", s, got)
		}
	}
}

func TestValueStringFromString(t *testing.T) {
	v := FromString("AB")
	if got := valueToString(v); got != "AB" {
		t.Fatalf("string round trip: %q", got)
	}
	if v.Width != 16 {
		t.Fatalf("width: %d", v.Width)
	}
}

// ParseBits builds a Value from a literal bit string like "10x1z".
func ParseBits(s string) Value {
	v := NewZero(len(s))
	for i := 0; i < len(s); i++ {
		var a, b uint64
		switch s[len(s)-1-i] {
		case '0':
		case '1':
			a = 1
		case 'z', 'Z', '?':
			b = 1
		default:
			a, b = 1, 1
		}
		v.setBit(i, a, b)
	}
	return v
}
