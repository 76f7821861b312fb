package similarity

// useAVX2 is whether the CPU and the OS run AVX2, and useVNNI whether they
// also run AVX-512 VNNI on ZMM registers, read once at init.
var useAVX2, useVNNI = cpuFeatures()

// The kernels of denserun_amd64.s, none of which checks bounds:
// denseRunAVX2 and denseRunVNNI are denseRunBody (VNNI over a multiple of 64
// slots), scanAVX2 is scanFrom's loop over the first len(acc)&^3 documents,
// and rescoreRowAVX2 rescoreRow's over len(exact), a multiple of 4.
//
//go:noescape
func denseRunAVX2(acc []int32, rows []int16, offs []int, qs []uint32)

//go:noescape
func denseRunVNNI(acc []int32, rows []int16, offs []int, qs []uint32)

//go:noescape
func scanAVX2(acc []float64, acci []int32, inv []float64, inflate, theta float64) int

//go:noescape
func rescoreRowAVX2(exact []float64, row []int16, docs []int32, norm []float64, qw float64)

func cpuFeatures() (avx2, vnni bool)
