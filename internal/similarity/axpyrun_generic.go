//go:build !amd64

//freehw:hotpath

package similarity

func axpyRunBody(acc, rows []float64, offs []int, qs []float64) { axpyRunGo(acc, rows, offs, qs) }
