//go:build !amd64

//freehw:hotpath

package similarity

// denseRunBody adds row pairs: pair j adds rows offs[2j] and offs[2j+1] with
// the counts in the low and high 16 bits of qs[4j].
func denseRunBody(acc []int32, rows []int16, offs []int, qs []uint32) {
	for j := range len(offs) / 2 {
		q := qs[4*j]
		a, b := rows[offs[2*j]:][:len(acc)], rows[offs[2*j+1]:][:len(acc)]
		for i := range acc {
			acc[i] += int32(q&0xffff)*int32(a[i]) + int32(q>>16)*int32(b[i])
		}
	}
}
