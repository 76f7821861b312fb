//go:build !amd64

package similarity

// Off amd64 there is no assembly: denseRunBody and scanFrom run Go loops.
var useAVX2 = false

func denseRunAVX2([]int32, []int16, []int, []uint32) { panic("similarity: no AVX2 body off amd64") }

func scanAVX2([]float64, []int32, []float64, float64, float64) int {
	panic("similarity: no AVX2 body off amd64")
}
