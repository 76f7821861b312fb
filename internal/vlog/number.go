package vlog

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxLiteralBits bounds literal widths so hostile input cannot force huge
// allocations during the curation syntax check.
const maxLiteralBits = 1 << 16

func words(bits int) int { return (bits + 63) / 64 }

// Literal faults: why parseNumericToken rejects a NUMBER token's text.
const (
	litOK         uint8 = iota
	litReal             // strconv.ParseFloat refuses the real literal
	litDecimal          // an unsized decimal past 64 bits
	litNoDigits         // a based literal whose digits are all underscores
	litSize             // a size of zero, or past the int range
	litTooWide          // a size, or a b/o/h value, wider than maxLiteralBits
	litDigitRange       // a digit too large for its base
	litDecDigit         // a 'd value that is not all decimal or one x/z/?
)

// literalFault holds the rules a NUMBER token's text must keep for the
// parser to take its value: digit legality per base, maxLiteralBits, the
// exponent shape and the 64-bit decimal range. It returns litOK or the fault
// parseNumericToken reports, with the offending digit for litDigitRange.
// text is a NUMBER as the lexer makes it, which fixes the rest of the shape:
// digits and underscores, then a real part, or a quote, an optional sign, a
// base letter and value digits from 0-9a-fA-FxXzZ?_. It allocates nothing,
// save for a real literal with an underscore in it.
func literalFault(text string) (fault uint8, digit byte) {
	quote := skipDigits(text, 0)
	switch {
	case quote == len(text): // an unsized decimal
		if _, ok := decimal(text, math.MaxUint64); !ok {
			return litDecimal, 0
		}
		return litOK, 0
	case text[quote] != '\'': // a real
		if _, err := strconv.ParseFloat(strings.ReplaceAll(text, "_", ""), 64); err != nil {
			return litReal, 0
		}
		return litOK, 0
	}
	rest := text[quote+1:]
	if rest[0]|0x20 == 's' {
		rest = rest[1:]
	}
	base, digits := rest[0]|0x20, strings.TrimSpace(rest[1:])
	n := len(digits) - strings.Count(digits, "_")
	if n == 0 {
		return litNoDigits, 0
	}
	if quote > 0 {
		w, ok := decimal(text[:quote], math.MaxInt64)
		if !ok || w == 0 {
			return litSize, 0
		}
		if w > maxLiteralBits {
			return litTooWide, 0
		}
	}
	if base == 'd' {
		// All decimal digits, or a lone x/z/? (IEEE 1364 §3.5.1).
		for i := 0; i < len(digits); i++ {
			if c := digits[i]; c != '_' && !isDigit(c) && !(n == 1 && isXZ(c)) {
				return litDecDigit, 0
			}
		}
		return litOK, 0
	}
	bits, top := baseDigit(base)
	if n*bits > maxLiteralBits {
		return litTooWide, 0
	}
	// The value is filled from its last digit, so that is the one reported.
	for i := len(digits) - 1; i >= 0; i-- {
		if c := digits[i]; c != '_' && !isXZ(c) && digitValue(c) > top {
			return litDigitRange, c
		}
	}
	return litOK, 0
}

// baseDigit returns the bits a digit of base b, o or h holds, and the
// largest digit.
func baseDigit(base byte) (bits int, top byte) {
	switch base {
	case 'b':
		return 1, 1
	case 'o':
		return 3, 7
	}
	return 4, 15
}

func isXZ(c byte) bool { return c|0x20 == 'x' || c|0x20 == 'z' || c == '?' }

// digitValue is the value of a hexadecimal digit.
func digitValue(c byte) byte {
	if isDigit(c) {
		return c - '0'
	}
	return c | 0x20 - 'a' + 10
}

// decimal parses the decimal digits of s, skipping underscores. ok is false,
// as for strconv.ParseUint of s with its underscores removed, if s has no
// digit, has any other byte, or is above limit.
func decimal(s string, limit uint64) (v uint64, ok bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' {
			continue
		}
		d := uint64(c - '0')
		if !isDigit(c) || v > (limit-d)/10 {
			return 0, false
		}
		v, ok = v*10+d, true
	}
	return v, ok
}

// literalFaults are the messages parseNumericToken reports, each followed
// by the literal; litDigitRange's quotes the digit.
var literalFaults = [...]string{
	litReal: "invalid real literal ", litDecimal: "invalid decimal literal ",
	litNoDigits: "literal missing digits: ", litSize: "invalid literal size in ",
	litTooWide: "literal too wide: ", litDecDigit: "invalid decimal digit in ",
	litDigitRange: "digit %q out of range for base in ",
}

// parseNumericToken converts a NUMBER token into a *Number or *RealLit.
func parseNumericToken(t Token) (Expr, error) {
	text := t.Text
	if fault, digit := literalFault(text); fault != litOK {
		msg := literalFaults[fault]
		if digit != 0 {
			msg = fmt.Sprintf(msg, string(digit))
		}
		return nil, &SyntaxError{Pos: t.Pos, Msg: msg + text}
	}
	quote := strings.IndexByte(text, '\'')
	if quote < 0 {
		clean := strings.ReplaceAll(text, "_", "")
		if strings.ContainsAny(text, ".eE") {
			v, _ := strconv.ParseFloat(clean, 64)
			return &RealLit{Pos: t.Pos, Value: v, Text: text}, nil
		}
		v, _ := strconv.ParseUint(clean, 10, 64)
		n := &Number{Pos: t.Pos, Width: 32, Signed: true, Text: text,
			A: []uint64{v}, B: make([]uint64, 1)}
		if v > 0xFFFFFFFF {
			// Unsized decimal literals wider than 32 bits keep their natural
			// width, like most tools.
			n.Width = 64
		}
		return n, nil
	}

	rest := text[quote+1:]
	signed := rest[0]|0x20 == 's'
	if signed {
		rest = rest[1:]
	}
	base := rest[0] | 0x20
	digits := strings.ReplaceAll(strings.TrimSpace(rest[1:]), "_", "")
	w, _ := decimal(text[:quote], math.MaxInt64)
	width, sized := int(w), quote > 0
	if base == 'd' {
		return parseDecimalBased(t, digits, width, sized, signed), nil
	}
	bitsPerDigit, _ := baseDigit(base)
	natural := len(digits) * bitsPerDigit
	if !sized {
		width = max(natural, 32)
	}
	n := &Number{
		Pos: t.Pos, Width: width, Sized: sized, Signed: signed, Text: text,
		A: make([]uint64, words(width)), B: make([]uint64, words(width)),
	}
	// Fill bits LSB-first from the last digit.
	bit := 0
	var msbA, msbB uint64 // planes of the most significant digit's top bit
	for i := len(digits) - 1; i >= 0; i-- {
		da, db := digitPlanes(digits[i])
		for k := 0; k < bitsPerDigit; k++ {
			a := (da >> k) & 1
			b := (db >> k) & 1
			if bit < n.Width {
				n.A[bit/64] |= a << (bit % 64)
				n.B[bit/64] |= b << (bit % 64)
			}
			if i == 0 && k == bitsPerDigit-1 {
				msbA, msbB = a, b
			}
			bit++
		}
	}
	// If the literal is narrower than the declared width and its leading
	// digit is x or z, the extension repeats x/z (IEEE 1364 §3.5.1).
	if natural < n.Width && msbB == 1 {
		for j := natural; j < n.Width; j++ {
			n.A[j/64] |= msbA << (j % 64)
			n.B[j/64] |= 1 << (j % 64)
		}
	}
	return n, nil
}

// digitPlanes returns 4-state planes for one legal digit of a b/o/h value.
// x -> all x, z/? -> all z within the digit's bits.
func digitPlanes(c byte) (a, b uint64) {
	switch {
	case c|0x20 == 'x':
		return ^uint64(0), ^uint64(0)
	case c|0x20 == 'z' || c == '?':
		return 0, ^uint64(0)
	}
	return uint64(digitValue(c)), 0
}

// parseDecimalBased handles 'd literals, including the single-digit x/z forms.
func parseDecimalBased(t Token, digits string, width int, sized, signed bool) Expr {
	if !sized {
		width = 32
	}
	n := &Number{
		Pos: t.Pos, Width: width, Sized: sized, Signed: signed, Text: t.Text,
		A: make([]uint64, words(width)), B: make([]uint64, words(width)),
	}
	if digits == "x" || digits == "X" {
		for i := 0; i < width; i++ {
			n.A[i/64] |= 1 << (i % 64)
			n.B[i/64] |= 1 << (i % 64)
		}
		return n
	}
	if digits == "z" || digits == "Z" || digits == "?" {
		for i := 0; i < width; i++ {
			n.B[i/64] |= 1 << (i % 64)
		}
		return n
	}
	// Multi-word accumulate: n = n*10 + d.
	acc := make([]uint64, words(width))
	for i := 0; i < len(digits); i++ {
		carry := uint64(digits[i] - '0')
		for w := range acc {
			lo, hi := mul64(acc[w], 10)
			lo, c2 := add64(lo, carry)
			acc[w] = lo
			carry = hi + c2
		}
		// carry overflow beyond width is silently truncated, as in Verilog.
	}
	copy(n.A, acc)
	n.maskTop()
	return n
}

func mul64(a, b uint64) (lo, hi uint64) {
	const mask = 0xFFFFFFFF
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al * bl
	lo = t & mask
	carry := t >> 32
	t = ah*bl + carry
	m1 := t & mask
	c1 := t >> 32
	t = al*bh + m1
	lo |= (t & mask) << 32
	hi = ah*bh + c1 + (t >> 32)
	return lo, hi
}

func add64(a, b uint64) (sum, carry uint64) {
	sum = a + b
	if sum < a {
		carry = 1
	}
	return sum, carry
}

// maskTop clears bits above Width in the top word.
func (n *Number) maskTop() {
	if n.Width%64 == 0 {
		return
	}
	mask := (uint64(1) << (n.Width % 64)) - 1
	n.A[len(n.A)-1] &= mask
	n.B[len(n.B)-1] &= mask
}

// Uint64 returns the low 64 bits of the literal value; ok is false when any
// bit is x/z.
func (n *Number) Uint64() (v uint64, ok bool) {
	for _, b := range n.B {
		if b != 0 {
			return 0, false
		}
	}
	return n.A[0], true
}
