package vlog

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

// heapObjects is the heap the runtime holds in objects, live or not yet
// swept.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakHeap runs fn and returns the most heapObjects read while it ran,
// sampled every millisecond and once more when it returns.
func peakHeap(fn func()) uint64 {
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, heapObjects())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return max(peak, heapObjects())
}

// Check's memory is the AST it builds plus the parser's two tokens, never a
// token per source byte, and it keeps nothing once the collector has run.
// Each file is 2 MiB. The bounds are set over what the parser measured,
// with the parent's token slice and pool in brackets: a nest of ( stops at
// the nesting bound and holds no AST, ≈ 0 (239 MB peak, 81 MB kept); a
// valid expression builds one node per operand and operator, 96 MB (235,
// 81 kept); a run of declarations, 30 MB (100, 33 kept).
func TestCheckMemoryBounded(t *testing.T) {
	const size = 2 << 20
	for _, c := range []struct {
		name, src string
		bound     uint64
	}{
		{"nest", "module m; wire w = " + strings.Repeat("(", size), 4 << 20},
		{"expression", "module m; wire w = a" + strings.Repeat("+a", size/2) + "; endmodule", 64 * size},
		{"token run", "module m; " + strings.Repeat("wire w; ", size/8) + "endmodule", 24 * size},
	} {
		runtime.GC()
		base := heapObjects()
		peak := peakHeap(func() { _ = Check(c.src) })
		runtime.GC()
		left := heapObjects()
		runtime.KeepAlive(c.src)
		if peak > base && peak-base > c.bound {
			t.Errorf("%s: Check's heap peaked %.1f MB over its baseline, bound %.1f MB", c.name, mb(peak-base), mb(c.bound))
		}
		if left > base && left-base > 1<<20 {
			t.Errorf("%s: %.1f MB still live after Check and a collection", c.name, mb(left-base))
		}
	}
}

func mb(n uint64) float64 { return float64(n) / (1 << 20) }
