//go:build amd64

//freehw:hotpath

package similarity

// axpy is axpyGo in SSE2 (axpy_amd64.s): acc[i] += q*ws[i] over
// min(len(acc), len(ws)) elements, the same float64s bit for bit.
//
//go:noescape
func axpy(acc, ws []float64, q float64)
