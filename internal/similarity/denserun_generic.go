//freehw:hotpath

package similarity

// denseRunBody adds row pairs: pair j adds rows offs[2j] and offs[2j+1]
// times the counts in the low and high 16 bits of qs[j], over len(acc), a
// multiple of 32 slots. It runs denseRunAVX2 where useAVX2, and this Go loop
// everywhere else: on amd64 without AVX2 and on every other GOARCH.
func denseRunBody(acc []int32, rows []int16, offs []int, qs []uint32) {
	if useAVX2 {
		denseRunAVX2(acc, rows, offs, qs)
		return
	}
	for j, q := range qs {
		a, b := rows[offs[2*j]:][:len(acc)], rows[offs[2*j+1]:][:len(acc)]
		for i := range acc {
			acc[i] += int32(q&0xffff)*int32(a[i]) + int32(q>>16)*int32(b[i])
		}
	}
}
