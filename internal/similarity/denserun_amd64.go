package similarity

// useAVX2 is whether the CPU and the OS run AVX2, read once at init.
var useAVX2 = cpuHasAVX2()

// denseRunAVX2 is denseRunBody in AVX2 (denserun_amd64.s); it checks no bounds.
//
//go:noescape
func denseRunAVX2(acc []int32, rows []int16, offs []int, qs []uint32)

func cpuHasAVX2() bool
