//go:build !amd64

package similarity

// Off amd64 there is no assembly: denseRunBody, scanFrom and rescoreRow run
// Go loops, and these are never called.
var useAVX2, useVNNI = false, false

func denseRunAVX2([]int32, []int16, []int, []uint32)                 { panic("no assembly") }
func denseRunVNNI([]int32, []int16, []int, []uint32)                 { panic("no assembly") }
func scanAVX2([]float64, []int32, []float64, float64, float64) int   { panic("no assembly") }
func rescoreRowAVX2([]float64, []int16, []int32, []float64, float64) { panic("no assembly") }
