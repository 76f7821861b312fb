package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Processor placement. The generator, the program under test and the host
// speed samples all run on ONE processor: the first this process may use.
// On a small virtual machine, letting the kernel spread a closed loop's two
// sides over two virtual processors makes every request pay a cross-processor
// wake-up whose cost depends on the hypervisor and on what the other tenants
// are doing, and lets the generator and the server preempt each other in
// patterns that change from minute to minute; identical binaries then differ
// by 30 % (README.md, "Host noise"). On one processor a closed loop's sides
// simply alternate, the server's Go runtime sizes itself to one P, and a
// speed sample taken between two slices measures the very processor the
// slices ran on. What that gives up is any speed-up from parallelism, which
// two shared virtual processors cannot measure reliably anyway.

// cpuSet is the kernel's affinity mask, enough for 1024 processors.
type cpuSet [16]uint64

func (s *cpuSet) first() int {
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s[cpu/64]&(1<<(cpu%64)) != 0 {
			return cpu
		}
	}
	return -1
}

// pinnedCPU is the processor everything runs on, or -1 when the kernel
// refused and the run goes unpinned (the result file records it).
var pinnedCPU = -1

// pinToOneCPU moves every thread of this process onto the first processor
// it is allowed and sizes the Go scheduler to match. Threads started later
// inherit the mask of the thread that starts them, so the scan repeats until
// a pass finds no thread it has not already moved.
func pinToOneCPU() {
	var allowed cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return
	}
	cpu := allowed.first()
	if cpu < 0 {
		return
	}
	runtime.GOMAXPROCS(1)
	moved := map[int]bool{}
	for pass, fresh := 0, true; fresh && pass < 10; pass++ {
		fresh = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || moved[tid] {
				continue
			}
			if err := pinThread(tid, cpu); err != nil && err != syscall.ESRCH {
				return
			}
			moved[tid], fresh = true, true
		}
	}
	pinnedCPU = cpu
}

func pinThread(tid, cpu int) error {
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 {
		return errno
	}
	return nil
}

// startPinned starts cmd from a thread that is certainly on the pinned
// processor: a child inherits the mask of the thread that forks it, and its
// Go runtime sizes itself from the mask it starts with.
func startPinned(cmd *exec.Cmd) error {
	if pinnedCPU < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := pinThread(0, pinnedCPU); err != nil {
		return err
	}
	return cmd.Start()
}
