package vsim

import (
	"math/bits"
	"strings"

	"freehw/internal/vlog"
)

// formatArgs renders $display-style arguments: string literals are scanned
// for % format specifiers that consume following arguments; bare values
// print in the given default base.
func (s *Simulator) formatArgs(e env, args []vlog.Expr, base byte) (string, error) {
	var sb strings.Builder
	i := 0
	for i < len(args) {
		if lit, ok := args[i].(*vlog.StringLit); ok {
			consumed, err := s.formatString(e, &sb, lit.Value, args[i+1:])
			if err != nil {
				return "", err
			}
			i += 1 + consumed
			continue
		}
		v, err := eval(e, args[i], 0)
		if err != nil {
			return "", err
		}
		v.Signed = exprSigned(e, args[i])
		sb.WriteString(formatValue(v, base, -1, false))
		i++
	}
	return sb.String(), nil
}

// formatString writes format into sb, consuming values from rest; returns
// how many of rest were consumed.
func (s *Simulator) formatString(e env, sb *strings.Builder, format string, rest []vlog.Expr) (int, error) {
	used := 0
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			sb.WriteByte('%')
			break
		}
		// Parse optional zero-pad and width.
		zero := false
		width := -1
		if format[i] == '0' && i+1 < len(format) && format[i+1] >= '0' && format[i+1] <= '9' {
			zero = true
			i++
		} else if format[i] == '0' && i+1 < len(format) && isFmtSpec(format[i+1]) {
			// %0d style: no padding at all.
			zero = true
			width = 0
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			if width < 0 {
				width = 0
			}
			width = width*10 + int(format[i]-'0')
			i++
		}
		if i >= len(format) {
			break
		}
		spec := format[i]
		i++
		if spec == '%' {
			sb.WriteByte('%')
			continue
		}
		if spec == 'm' || spec == 'M' {
			sb.WriteString(e.scope.Name)
			continue
		}
		if used >= len(rest) {
			return used, &FormatError{Msg: "format string has more specifiers than arguments"}
		}
		v, err := eval(e, rest[used], 0)
		if err != nil {
			return used, err
		}
		v.Signed = exprSigned(e, rest[used])
		if lit, ok := rest[used].(*vlog.StringLit); ok && (spec == 's' || spec == 'S') {
			sb.WriteString(lit.Value)
			used++
			continue
		}
		used++
		switch spec {
		case 'd', 'D':
			sb.WriteString(formatValue(v, 'd', width, zero))
		case 'b', 'B':
			sb.WriteString(formatValue(v, 'b', width, zero))
		case 'h', 'H', 'x', 'X':
			sb.WriteString(formatValue(v, 'h', width, zero))
		case 'o', 'O':
			sb.WriteString(formatValue(v, 'o', width, zero))
		case 'c', 'C':
			u, ok := v.Uint64()
			if ok {
				sb.WriteByte(byte(u))
			} else {
				sb.WriteByte('?')
			}
		case 's', 'S':
			sb.WriteString(valueToString(v))
		case 't', 'T':
			sb.WriteString(formatValue(v, 'd', width, zero))
		case 'e', 'f', 'g', 'E', 'F', 'G', 'v', 'V':
			sb.WriteString(formatValue(v, 'd', width, zero))
		default:
			sb.WriteByte('%')
			sb.WriteByte(spec)
		}
	}
	return used, nil
}

func isFmtSpec(c byte) bool {
	switch c {
	case 'd', 'D', 'b', 'B', 'h', 'H', 'x', 'X', 'o', 'O', 'c', 'C', 's', 'S', 't', 'T':
		return true
	}
	return false
}

// formatValue renders v in base b ('d','b','h','o'). width<0 means the
// natural Verilog column width; width==0 means minimal.
func formatValue(v Value, base byte, width int, zero bool) string {
	var body string
	switch base {
	case 'b':
		body = v.String()
		if width == 0 {
			body = strings.TrimLeft(body, "0")
			if body == "" {
				body = "0"
			}
		}
	case 'h':
		body = hexString(v, width == 0)
	case 'o':
		body = octString(v, width == 0)
	default:
		body = DecimalString(v)
		if width < 0 {
			// Natural decimal column width for the vector size.
			width = len(DecimalString(maxValue(v.Width)))
		}
	}
	if width > len(body) {
		pad := " "
		if zero {
			pad = "0"
		}
		body = strings.Repeat(pad, width-len(body)) + body
	}
	return body
}

func maxValue(w int) Value {
	v := NewZero(w)
	for i := range v.A {
		v.A[i] = ^uint64(0)
	}
	v.norm()
	return v
}

// DecimalString renders v in decimal. Unknown values print as x/z/X per
// common simulator conventions; negative signed values get a leading minus.
func DecimalString(v Value) string {
	allx, allz, anyUnknown := true, true, false
	for i := 0; i < v.Width; i++ {
		a, b := v.Bit(i)
		if b == 0 {
			allx, allz = false, false
		} else {
			anyUnknown = true
			if a == 0 {
				allx = false
			} else {
				allz = false
			}
		}
	}
	if anyUnknown {
		switch {
		case allx:
			return "x"
		case allz:
			return "z"
		default:
			return "X"
		}
	}
	neg := false
	mag := v.Clone()
	if v.Signed {
		sa, _ := v.Bit(v.Width - 1)
		if sa == 1 {
			neg = true
			mag = Neg(v)
			mag.Signed = false
		}
	}
	words := make([]uint64, len(mag.A))
	copy(words, mag.A)
	var digits []byte
	for {
		nonZero := false
		var rem uint64
		for i := len(words) - 1; i >= 0; i-- {
			q, r := bits.Div64(rem, words[i], 10)
			words[i] = q
			rem = r
			if q != 0 {
				nonZero = true
			}
		}
		digits = append(digits, byte('0'+rem))
		if !nonZero {
			break
		}
	}
	// digits are little-endian.
	var sb strings.Builder
	if neg {
		sb.WriteByte('-')
	}
	for i := len(digits) - 1; i >= 0; i-- {
		sb.WriteByte(digits[i])
	}
	return sb.String()
}

func hexString(v Value, trim bool) string { return radixString(v, 4, trim) }
func octString(v Value, trim bool) string { return radixString(v, 3, trim) }

// radixString prints v one digit per group of bits bits (4: hex, 3: octal).
// A group with unknown bits follows IEEE 1364 §17.1.1.4: x when every bit is
// x, z when every bit is z, Z when some bits are z and none is x, X otherwise.
func radixString(v Value, bits int, trim bool) string {
	n := (v.Width + bits - 1) / bits
	out := make([]byte, n)
	for d := 0; d < n; d++ {
		var val, xBits, zBits, total uint64
		for k := 0; k < bits && d*bits+k < v.Width; k++ {
			total++
			a, b := v.Bit(d*bits + k)
			xBits += a & b
			zBits += b &^ a
			val |= a << k
		}
		switch {
		case xBits+zBits == 0:
			out[n-1-d] = "0123456789abcdef"[val]
		case xBits == total:
			out[n-1-d] = 'x'
		case zBits == total:
			out[n-1-d] = 'z'
		case xBits == 0:
			out[n-1-d] = 'Z'
		default:
			out[n-1-d] = 'X'
		}
	}
	s := string(out)
	if trim {
		s = strings.TrimLeft(s, "0")
		if s == "" {
			s = "0"
		}
	}
	return s
}

// valueToString decodes a bit vector as ASCII (8 bits per char, MSB first),
// skipping leading NUL bytes.
func valueToString(v Value) string {
	n := (v.Width + 7) / 8
	out := make([]byte, 0, n)
	for i := n - 1; i >= 0; i-- {
		var c byte
		for k := 0; k < 8; k++ {
			bit := i*8 + k
			if bit >= v.Width {
				break
			}
			a, _ := v.Bit(bit)
			c |= byte(a) << k
		}
		if c == 0 && len(out) == 0 {
			continue
		}
		out = append(out, c)
	}
	return string(out)
}
