//go:build !amd64

//freehw:hotpath

package similarity

func axpy(acc, ws []float64, q float64) { axpyGo(acc, ws, q) }
