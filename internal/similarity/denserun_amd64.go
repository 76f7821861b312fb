//go:build amd64

//freehw:hotpath

package similarity

// denseRunBody adds row pairs in SSE2 (denserun_amd64.s): pair j adds rows
// offs[2j] and offs[2j+1] with the counts in the low and high 16 bits of
// qs[4j] (repeated in qs[4j+1..4j+3]), over len(acc), a multiple of 32
// slots. It checks nothing: denseRun has already established that every row
// it reads lies inside rows.
//
//go:noescape
func denseRunBody(acc []int32, rows []int16, offs []int, qs []uint32)
