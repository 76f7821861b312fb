// Package mapord_a is the golden corpus for the mapord analyzer: every
// order-sensitive sink of a map range, the sorted/suppressed escapes, and
// the order-insensitive shapes that must stay quiet.
package mapord_a

import (
	"bytes"
	"fmt"
	"sort"
)

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `range over map m appends to out with no sort`
	}
	return out
}

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // ok: dominated by the sort below
	}
	sort.Strings(out)
	return out
}

func sortBeforeDoesNotCount(m map[string]int) []string {
	out := make([]string, 0, len(m))
	sort.Strings(out)
	for k := range m {
		out = append(out, k) // want `appends to out with no sort`
	}
	return out
}

func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `accumulates float sum; iteration order changes rounding`
	}
	return sum
}

func spelledOutSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total = total + v // want `accumulates float total`
	}
	return total
}

func intFold(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v // ok: max is order-insensitive
		}
	}
	return best
}

func intSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // ok: integer addition is associative
	}
	return n
}

func writeFprint(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		fmt.Fprintln(buf, k) // want `writes to an io.Writer \(fmt.Fprintln\)`
	}
}

func writeMethod(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		buf.WriteString(k) // want `writes to an io.Writer \(buf.WriteString\)`
	}
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //freehw:nolint mapord -- consumer treats this as an unordered set
	}
	return out
}

func suppressedAbove(m map[string]int, buf *bytes.Buffer) {
	for k := range m {
		//freehw:nolint mapord -- debug sink, never part of a verdict
		fmt.Fprintln(buf, k)
	}
}

func mapToMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v // ok: destination is itself unordered
	}
	return out
}

type series struct{ values []float64 }

func appendToBodyLocalCopy(m map[string]float64, out map[string]series) {
	for k, v := range m {
		s := out[k]
		s.values = append(s.values, v) // ok: s is declared in the body and stored back under the range key
		out[k] = s
	}
}

func scaleBodyLocalSlice(m map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for k, v := range m {
		ms := append([]float64(nil), v...)
		for i := range ms {
			ms[i] *= 1000 // ok: ms is declared in the body; nothing accumulates across keys
		}
		out[k] = ms
	}
	return out
}

func bodyLocalPointerStillAccumulates(m map[string]float64, total *float64) {
	for _, v := range m {
		p := total
		*p += v // want `accumulates float \*p`
	}
}
