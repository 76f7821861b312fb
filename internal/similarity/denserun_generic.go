//freehw:hotpath

package similarity

// denseRunBody adds row pairs: pair j adds rows offs[2j] and offs[2j+1]
// times the counts in the low and high 16 bits of qs[j], over len(acc), a
// multiple of 32 slots. It runs denseRunVNNI over whole chunks of 64 where
// useVNNI, denseRunAVX2 over the rest where useAVX2, and this Go loop
// everywhere else: on amd64 without AVX2 and on every other GOARCH.
func denseRunBody(acc []int32, rows []int16, offs []int, qs []uint32) {
	if n := len(acc) &^ 63; useVNNI && n > 0 {
		denseRunVNNI(acc[:n], rows, offs, qs)
		if acc, rows = acc[n:], rows[n:]; len(acc) == 0 {
			return
		}
	}
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

// scanFrom returns the first document i >= from whose approximate dot
// product a = acc[i] + acci[i]·inv[i] may join the candidates (see scan), or
// len(acc): scanAVX2 over whole steps of four where useAVX2, this Go loop on
// the rest and everywhere else.
func scanFrom(acc []float64, acci []int32, inv []float64, from int, inflate, theta float64) int {
	acci, inv, i := acci[:len(acc)], inv[:len(acc)], from
	if useAVX2 {
		n := (len(acc) - i) &^ 3
		if j := scanAVX2(acc[i:], acci[i:], inv[i:], inflate, theta); j < n {
			return i + j
		}
		i += n
	}
	for ; i < len(acc); i++ {
		if a := acc[i] + float64(float64(acci[i])*inv[i]); !(a*inflate < theta) && a != 0 {
			break
		}
	}
	return i
}

// rescoreRow adds one dense row's terms to the exact sums of the documents
// docs, ascending: exact[j] += qw·(row[docs[j]]/norm[j]), norm[j] being
// docs[j]'s norm. rescoreRowAVX2 takes whole steps of four where useAVX2,
// this Go loop the rest and everywhere else; each rounds as the other does.
// It panics rather than read outside row: the assembly checks nothing.
func rescoreRow(exact []float64, row []int16, docs []int32, norm []float64, qw float64) {
	docs, norm, j := docs[:len(exact)], norm[:len(exact)], 0
	if len(docs) > 0 && (docs[0] < 0 || int(docs[len(docs)-1]) >= len(row)) {
		panic("similarity: rescoreRow document outside row")
	}
	if n := len(exact) &^ 3; useAVX2 && n > 0 {
		rescoreRowAVX2(exact[:n], row, docs, norm, qw)
		j = n
	}
	for ; j < len(exact); j++ {
		exact[j] += float64(qw * (float64(row[docs[j]]) / norm[j]))
	}
}
