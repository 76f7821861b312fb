package similarity

// useAVX2 is whether the CPU and the OS run AVX2, read once at init.
var useAVX2 = cpuHasAVX2()

// denseRunAVX2 is denseRunBody in AVX2 (denserun_amd64.s); it checks no bounds.
//
//go:noescape
func denseRunAVX2(acc []int32, rows []int16, offs []int, qs []uint32)

// scanAVX2 is scanFrom's loop in AVX2 (denserun_amd64.s) over the first
// len(acc)&^3 documents; it checks no bounds.
//
//go:noescape
func scanAVX2(acc []float64, acci []int32, inv []float64, inflate, theta float64) int

func cpuHasAVX2() bool
