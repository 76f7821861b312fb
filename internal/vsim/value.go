// Package vsim is an event-driven simulator for the Verilog subset parsed by
// internal/vlog: 4-state values, module elaboration with parameter
// resolution, a stratified event scheduler (active / NBA / postponed regions
// per IEEE 1364 §11), and the system tasks testbenches need.
//
// It plays the role a commercial simulator plays in the paper's VerilogEval
// grading: generated RTL is judged functionally correct only if it simulates
// to the same output traces as the reference design.
package vsim

import (
	"fmt"
	"math/bits"
	"strings"

	"freehw/internal/vlog"
)

// Value is a 4-state bit vector. Bit i is encoded across two planes:
// a=(A[i/64]>>(i%64))&1, b likewise; (a,b): 0=(0,0), 1=(1,0), z=(0,1),
// x=(1,1). Values are normalized: bits above Width are zero in both planes.
type Value struct {
	Width  int
	Signed bool
	A, B   []uint64
}

func wordsFor(w int) int {
	if w <= 0 {
		return 1
	}
	return (w + 63) / 64
}

// NewValue returns an all-x value of the given width (the Verilog power-on
// state for variables).
func NewValue(width int) Value {
	v := Value{Width: width, A: make([]uint64, wordsFor(width)), B: make([]uint64, wordsFor(width))}
	for i := range v.A {
		v.A[i] = ^uint64(0)
		v.B[i] = ^uint64(0)
	}
	v.norm()
	return v
}

// NewZ returns an all-z value (the state of an undriven net).
func NewZ(width int) Value {
	v := Value{Width: width, A: make([]uint64, wordsFor(width)), B: make([]uint64, wordsFor(width))}
	for i := range v.B {
		v.B[i] = ^uint64(0)
	}
	v.norm()
	return v
}

// NewZero returns an all-0 value.
func NewZero(width int) Value {
	return Value{Width: width, A: make([]uint64, wordsFor(width)), B: make([]uint64, wordsFor(width))}
}

// FromUint64 builds a defined value from the low bits of u.
func FromUint64(u uint64, width int) Value {
	v := NewZero(width)
	v.A[0] = u
	v.norm()
	return v
}

// FromInt64 builds a defined signed value.
func FromInt64(i int64, width int) Value {
	v := NewZero(width)
	v.Signed = true
	u := uint64(i)
	for w := range v.A {
		if i < 0 {
			v.A[w] = ^uint64(0)
		}
	}
	v.A[0] = u
	if len(v.A) > 1 && i >= 0 {
		for w := 1; w < len(v.A); w++ {
			v.A[w] = 0
		}
	}
	v.norm()
	return v
}

// FromNumber converts a parsed literal.
func FromNumber(n *vlog.Number) Value {
	v := Value{Width: n.Width, Signed: n.Signed, A: make([]uint64, wordsFor(n.Width)), B: make([]uint64, wordsFor(n.Width))}
	copy(v.A, n.A)
	copy(v.B, n.B)
	v.norm()
	return v
}

// FromString packs a string literal as a bit vector, 8 bits per character,
// first character most significant (IEEE 1364 §3.6).
func FromString(s string) Value {
	w := 8 * len(s)
	if w == 0 {
		w = 8
	}
	v := NewZero(w)
	for i := 0; i < len(s); i++ {
		c := uint64(s[len(s)-1-i])
		for k := 0; k < 8; k++ {
			v.setBit(i*8+k, (c>>k)&1, 0)
		}
	}
	return v
}

// Clone returns a deep copy.
func (v Value) Clone() Value {
	c := Value{Width: v.Width, Signed: v.Signed, A: make([]uint64, len(v.A)), B: make([]uint64, len(v.B))}
	copy(c.A, v.A)
	copy(c.B, v.B)
	return c
}

// norm clears bits above Width.
func (v *Value) norm() {
	if v.Width <= 0 {
		v.Width = 1
	}
	top := v.Width % 64
	if top != 0 {
		mask := (uint64(1) << top) - 1
		v.A[len(v.A)-1] &= mask
		v.B[len(v.B)-1] &= mask
	}
}

// Bit returns the planes of bit i (0 if out of range).
func (v Value) Bit(i int) (a, b uint64) {
	if i < 0 || i >= v.Width {
		return 0, 0
	}
	return (v.A[i/64] >> (i % 64)) & 1, (v.B[i/64] >> (i % 64)) & 1
}

func (v *Value) setBit(i int, a, b uint64) {
	if i < 0 || i >= v.Width {
		return
	}
	mask := uint64(1) << (i % 64)
	v.A[i/64] = (v.A[i/64] &^ mask) | (a << (i % 64) & mask)
	v.B[i/64] = (v.B[i/64] &^ mask) | (b << (i % 64) & mask)
}

// IsDefined reports whether no bit is x or z.
func (v Value) IsDefined() bool {
	for _, b := range v.B {
		if b != 0 {
			return false
		}
	}
	return true
}

// IsZero reports whether the value is fully defined and equal to zero.
func (v Value) IsZero() bool {
	if !v.IsDefined() {
		return false
	}
	for _, a := range v.A {
		if a != 0 {
			return false
		}
	}
	return true
}

// IsTrue reports whether the value is "true" in a condition: defined-nonzero
// on at least one bit (Verilog: any 1 bit makes it true; all-0 false; x/z
// bits with no 1 bit make the condition false-like unknown — we treat
// unknown as false, matching `if` semantics).
func (v Value) IsTrue() bool {
	for i, a := range v.A {
		if a&^v.B[i] != 0 {
			return true
		}
	}
	return false
}

// Uint64 returns the low 64 bits; ok is false if any bit is x/z.
func (v Value) Uint64() (u uint64, ok bool) {
	if !v.IsDefined() {
		return 0, false
	}
	return v.A[0], true
}

// Int64 returns the value as a signed 64-bit integer (sign bit = MSB when
// the value is signed).
func (v Value) Int64() (int64, bool) {
	u, ok := v.Uint64()
	if !ok {
		return 0, false
	}
	if v.Signed && v.Width < 64 {
		sa, _ := v.Bit(v.Width - 1)
		if sa == 1 {
			u |= ^uint64(0) << v.Width
		}
	}
	return int64(u), true
}

// Equal4 reports exact 4-state equality (same width assumed after resize).
func (v Value) Equal4(o Value) bool {
	if v.Width != o.Width {
		return false
	}
	for i := range v.A {
		if v.A[i] != o.A[i] || v.B[i] != o.B[i] {
			return false
		}
	}
	return true
}

// Resize returns v extended or truncated to width w. Extension is sign
// extension when v.Signed, else zero extension; x/z in the sign bit extend
// as x/z.
func (v Value) Resize(w int) Value {
	if w == v.Width {
		return v.Clone()
	}
	out := NewZero(w)
	out.Signed = v.Signed
	for i := 0; i < len(out.A) && i < len(v.A); i++ {
		out.A[i] = v.A[i]
		out.B[i] = v.B[i]
	}
	out.norm()
	if w < v.Width {
		return out
	}
	// Extension.
	var ea, eb uint64
	if v.Signed && v.Width > 0 {
		ea, eb = v.Bit(v.Width - 1)
	}
	if ea != 0 || eb != 0 {
		for i := v.Width; i < w; i++ {
			out.setBit(i, ea, eb)
		}
	}
	return out
}

// String renders the value in Verilog %b style (for debugging and traces).
func (v Value) String() string {
	var sb strings.Builder
	for i := v.Width - 1; i >= 0; i-- {
		a, b := v.Bit(i)
		switch {
		case b == 0 && a == 0:
			sb.WriteByte('0')
		case b == 0 && a == 1:
			sb.WriteByte('1')
		case b == 1 && a == 0:
			sb.WriteByte('z')
		default:
			sb.WriteByte('x')
		}
	}
	return sb.String()
}

// allX returns an all-x value of width w (result of arithmetic on x).
func allX(w int) Value {
	v := NewZero(w)
	for i := range v.A {
		v.A[i] = ^uint64(0)
		v.B[i] = ^uint64(0)
	}
	v.norm()
	return v
}

// ---- Bitwise operations (4-state truth tables, IEEE 1364 §4.1) ----

// And computes bitwise AND; widths must match. Per the 4-state table a
// known-0 on either side forces 0, both known-1 gives 1, everything else x.
func And(x, y Value) Value {
	out := NewZero(x.Width)
	for i := range out.A {
		ones := (x.A[i] &^ x.B[i]) & (y.A[i] &^ y.B[i])
		zeros := (^x.A[i] &^ x.B[i]) | (^y.A[i] &^ y.B[i])
		unk := ^(ones | zeros)
		out.A[i] = ones | unk
		out.B[i] = unk
	}
	out.norm()
	return out
}

// Or computes bitwise OR.
func Or(x, y Value) Value {
	out := NewZero(x.Width)
	for i := range out.A {
		ox := x.A[i] &^ x.B[i] // bits where x is 1
		oy := y.A[i] &^ y.B[i]
		ones := ox | oy
		unk := ^ones & (x.B[i] | y.B[i])
		out.A[i] = ones | unk
		out.B[i] = unk
	}
	out.norm()
	return out
}

// Xor computes bitwise XOR; any x/z bit yields x.
func Xor(x, y Value) Value {
	out := NewZero(x.Width)
	for i := range out.A {
		unk := x.B[i] | y.B[i]
		out.A[i] = ((x.A[i] ^ y.A[i]) &^ unk) | unk
		out.B[i] = unk
	}
	out.norm()
	return out
}

// Not computes bitwise negation; x/z bits yield x.
func Not(x Value) Value {
	out := NewZero(x.Width)
	for i := range out.A {
		out.A[i] = (^x.A[i] &^ x.B[i]) | x.B[i]
		out.B[i] = x.B[i]
	}
	out.norm()
	return out
}

// ---- Reductions ----

// RedAnd is &x: 0 if any known-0 bit, else x if any unknown, else 1.
func RedAnd(x Value) Value {
	anyUnknown := false
	for i := 0; i < x.Width; i++ {
		a, b := x.Bit(i)
		if b == 0 && a == 0 {
			return FromUint64(0, 1)
		}
		if b == 1 {
			anyUnknown = true
		}
	}
	if anyUnknown {
		return allX(1)
	}
	return FromUint64(1, 1)
}

// RedOr is |x: 1 if any known-1 bit, else x if any unknown, else 0.
func RedOr(x Value) Value {
	anyUnknown := false
	for i := 0; i < x.Width; i++ {
		a, b := x.Bit(i)
		if b == 0 && a == 1 {
			return FromUint64(1, 1)
		}
		if b == 1 {
			anyUnknown = true
		}
	}
	if anyUnknown {
		return allX(1)
	}
	return FromUint64(0, 1)
}

// RedXor is ^x: x if any unknown, else parity.
func RedXor(x Value) Value {
	parity := uint64(0)
	for i := range x.A {
		if x.B[i] != 0 {
			return allX(1)
		}
		parity ^= uint64(bits.OnesCount64(x.A[i]) & 1)
	}
	return FromUint64(parity&1, 1)
}

// ---- Arithmetic ----

// Add returns x+y at width max(w). Any x/z bit poisons the result.
func Add(x, y Value) Value {
	w := x.Width
	if !x.IsDefined() || !y.IsDefined() {
		return allX(w)
	}
	out := NewZero(w)
	out.Signed = x.Signed && y.Signed
	var carry uint64
	for i := range out.A {
		s1 := x.A[i] + carry
		c1 := uint64(0)
		if s1 < x.A[i] {
			c1 = 1
		}
		s2 := s1 + y.A[i]
		c2 := uint64(0)
		if s2 < s1 {
			c2 = 1
		}
		out.A[i] = s2
		carry = c1 + c2
	}
	out.norm()
	return out
}

// Sub returns x-y.
func Sub(x, y Value) Value {
	w := x.Width
	if !x.IsDefined() || !y.IsDefined() {
		return allX(w)
	}
	// x + ~y + 1
	ny := Not(y)
	one := FromUint64(1, w)
	out := Add(Add(x, ny), one)
	out.Signed = x.Signed && y.Signed
	return out
}

// Neg returns -x.
func Neg(x Value) Value {
	return Sub(NewZero(x.Width), x)
}

// Mul returns x*y truncated to x.Width.
func Mul(x, y Value) Value {
	w := x.Width
	if !x.IsDefined() || !y.IsDefined() {
		return allX(w)
	}
	out := NewZero(w)
	out.Signed = x.Signed && y.Signed
	for i := range x.A {
		if x.A[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < len(out.A); j++ {
			hi, lo := bits.Mul64(x.A[i], y.A[j])
			lo, c1 := bits.Add64(lo, out.A[i+j], 0)
			lo, c2 := bits.Add64(lo, carry, 0)
			out.A[i+j] = lo
			carry = hi + c1 + c2
		}
	}
	out.norm()
	return out
}

// DivMod returns x/y and x%y. Division by zero yields all-x, as in Verilog.
// Signedness follows the (already width-matched) operands.
func DivMod(x, y Value) (q, r Value) {
	w := x.Width
	if !x.IsDefined() || !y.IsDefined() || y.IsZero() {
		return allX(w), allX(w)
	}
	signed := x.Signed && y.Signed
	xm, xneg := magnitude(x, signed)
	ym, yneg := magnitude(y, signed)
	qm, rm := udivmod(xm, ym)
	q, r = qm, rm
	q.Signed, r.Signed = signed, signed
	if signed {
		if xneg != yneg {
			q = Neg(q)
			q.Signed = true
		}
		if xneg { // remainder takes the sign of the dividend
			r = Neg(r)
			r.Signed = true
		}
	}
	return q, r
}

// magnitude returns |x| and whether x was negative under signed
// interpretation.
func magnitude(x Value, signed bool) (Value, bool) {
	if !signed {
		return x.Clone(), false
	}
	sa, _ := x.Bit(x.Width - 1)
	if sa == 1 {
		n := Neg(x)
		n.Signed = false
		return n, true
	}
	c := x.Clone()
	c.Signed = false
	return c, false
}

// udivmod is shift-subtract long division on unsigned values.
func udivmod(x, y Value) (q, r Value) {
	w := x.Width
	q = NewZero(w)
	r = NewZero(w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		r = ShiftLeft(r, 1)
		a, _ := x.Bit(i)
		if a == 1 {
			r.A[0] |= 1
		}
		if ucmp(r, y) >= 0 {
			r = Sub(r, y)
			r.Signed = false
			q.A[i/64] |= 1 << (i % 64)
		}
	}
	return q, r
}

// ucmp compares two defined values as unsigned integers.
func ucmp(x, y Value) int {
	n := len(x.A)
	if len(y.A) > n {
		n = len(y.A)
	}
	for i := n - 1; i >= 0; i-- {
		var xa, ya uint64
		if i < len(x.A) {
			xa = x.A[i]
		}
		if i < len(y.A) {
			ya = y.A[i]
		}
		if xa != ya {
			if xa < ya {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Pow computes x**y (unsigned exponent; x/z poisons).
func Pow(x, y Value) Value {
	w := x.Width
	if !x.IsDefined() || !y.IsDefined() {
		return allX(w)
	}
	exp, ok := y.Uint64()
	if !ok || exp > 1<<20 {
		return allX(w)
	}
	result := FromUint64(1, w)
	base := x.Clone()
	for exp > 0 {
		if exp&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		exp >>= 1
	}
	result.Signed = x.Signed
	return result
}

// ---- Comparison ----

// Cmp compares x and y (already resized to a common width); returns
// -1/0/+1, with ok=false when any operand has x/z bits.
func Cmp(x, y Value, signed bool) (int, bool) {
	if !x.IsDefined() || !y.IsDefined() {
		return 0, false
	}
	if signed {
		sx, _ := x.Bit(x.Width - 1)
		sy, _ := y.Bit(y.Width - 1)
		if sx != sy {
			if sx == 1 {
				return -1, true
			}
			return 1, true
		}
	}
	return ucmp(x, y), true
}

// LogicEq implements == : 1-bit result, x when operands have x/z bits.
func LogicEq(x, y Value) Value {
	if !x.IsDefined() || !y.IsDefined() {
		return allX(1)
	}
	if ucmp(x, y) == 0 {
		return FromUint64(1, 1)
	}
	return FromUint64(0, 1)
}

// CaseEq implements === : exact 4-state match, always 0/1.
func CaseEq(x, y Value) Value {
	if x.Equal4(y) {
		return FromUint64(1, 1)
	}
	return FromUint64(0, 1)
}

// ---- Shifts ----

// ShiftLeft logical-shifts x left by n, keeping width.
func ShiftLeft(x Value, n int) Value {
	out := NewZero(x.Width)
	out.Signed = x.Signed
	if n >= x.Width {
		return out
	}
	wordShift, bitShift := n/64, uint(n%64)
	for i := len(out.A) - 1; i >= 0; i-- {
		src := i - wordShift
		if src < 0 {
			continue
		}
		out.A[i] = x.A[src] << bitShift
		out.B[i] = x.B[src] << bitShift
		if bitShift > 0 && src > 0 {
			out.A[i] |= x.A[src-1] >> (64 - bitShift)
			out.B[i] |= x.B[src-1] >> (64 - bitShift)
		}
	}
	out.norm()
	return out
}

// ShiftRight shifts x right by n; arithmetic fills with the sign bit when
// arith is true and x is signed.
func ShiftRight(x Value, n int, arith bool) Value {
	out := NewZero(x.Width)
	out.Signed = x.Signed
	var fa, fb uint64
	if arith && x.Signed && x.Width > 0 {
		fa, fb = x.Bit(x.Width - 1)
	}
	if n >= x.Width {
		if fa != 0 || fb != 0 {
			for i := 0; i < x.Width; i++ {
				out.setBit(i, fa, fb)
			}
		}
		return out
	}
	for i := 0; i < x.Width-n; i++ {
		a, b := x.Bit(i + n)
		out.setBit(i, a, b)
	}
	if fa != 0 || fb != 0 {
		for i := x.Width - n; i < x.Width; i++ {
			out.setBit(i, fa, fb)
		}
	}
	return out
}

// ---- Assembly helpers ----

// ConcatValues joins parts MSB-first (parts[0] is most significant).
func ConcatValues(parts []Value) Value {
	total := 0
	for _, p := range parts {
		total += p.Width
	}
	out := NewZero(total)
	bit := 0
	for i := len(parts) - 1; i >= 0; i-- {
		p := parts[i]
		for j := 0; j < p.Width; j++ {
			a, b := p.Bit(j)
			out.setBit(bit, a, b)
			bit++
		}
	}
	return out
}

// Slice extracts bits [lo, lo+width) of x; out-of-range bits read as x.
func Slice(x Value, lo, width int) Value {
	out := NewZero(width)
	for i := 0; i < width; i++ {
		src := lo + i
		if src < 0 || src >= x.Width {
			out.setBit(i, 1, 1)
			continue
		}
		a, b := x.Bit(src)
		out.setBit(i, a, b)
	}
	return out
}

// Insert writes val into x at bit offset lo, returning the updated copy.
// Out-of-range bits of the destination are ignored.
func Insert(x Value, lo int, val Value) Value {
	out := x.Clone()
	for i := 0; i < val.Width; i++ {
		dst := lo + i
		if dst < 0 || dst >= x.Width {
			continue
		}
		a, b := val.Bit(i)
		out.setBit(dst, a, b)
	}
	return out
}

// Resolve merges multiple net drivers per the wire resolution table: z loses
// to any driven value; conflicting driven values produce x.
func Resolve(drivers []Value, width int) Value {
	if len(drivers) == 0 {
		return NewZ(width)
	}
	out := NewZ(width)
	for i := 0; i < width; i++ {
		var haveA, haveB uint64
		seen := false
		conflict := false
		for _, d := range drivers {
			a, b := uint64(0), uint64(1) // out-of-range driver bits are z
			if i < d.Width {
				a, b = d.Bit(i)
			}
			if b == 1 && a == 0 {
				continue // z: not driving
			}
			if b == 1 && a == 1 {
				// x driver forces x
				seen = true
				conflict = true
				continue
			}
			if !seen {
				haveA, haveB = a, b
				seen = true
			} else if haveA != a || haveB != b {
				conflict = true
			}
		}
		switch {
		case !seen:
			out.setBit(i, 0, 1) // z
		case conflict:
			out.setBit(i, 1, 1) // x
		default:
			out.setBit(i, haveA, haveB)
		}
	}
	return out
}

// FormatError is returned for malformed $display format usage.
type FormatError struct{ Msg string }

func (e *FormatError) Error() string { return "vsim: " + e.Msg }

var _ = fmt.Sprintf // keep fmt imported for helpers in this file's siblings
