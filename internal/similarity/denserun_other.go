//go:build !amd64

package similarity

// Off amd64 there is no assembly: denseRunBody runs its Go loop.
var useAVX2 = false

func denseRunAVX2([]int32, []int16, []int, []uint32) { panic("similarity: no AVX2 body off amd64") }
