//go:build amd64

//freehw:hotpath

package similarity

// axpyRunBody is axpyRunGo in SSE2 (axpyrun_amd64.s), the same float64s bit
// for bit. It checks nothing: axpyRun has already established that every
// row it reads lies inside rows.
//
//go:noescape
func axpyRunBody(acc, rows []float64, offs []int, qs []float64)
