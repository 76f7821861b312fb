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

// Check runs the grammar without building an AST and holds the parser's
// two tokens, never a token per source byte, so a 2 MiB file of any shape
// costs it next to nothing, and it keeps nothing once the collector has
// run. The three shapes: a nest of ( that stops at the nesting bound; a
// valid expression a+a+…, one node per operand and operator had Check
// built them (96 MB measured when it did, 235 MB with a token slice); a
// run of declarations (30 MB with the AST, 100 with the slice).
func TestCheckMemoryBounded(t *testing.T) {
	const size, bound = 2 << 20, 4 << 20
	for _, c := range []struct{ name, src string }{
		{"nest", "module m; wire w = " + strings.Repeat("(", size)},
		{"expression", "module m; wire w = a" + strings.Repeat("+a", size/2) + "; endmodule"},
		{"token run", "module m; " + strings.Repeat("wire w; ", size/8) + "endmodule"},
	} {
		runtime.GC()
		base := heapObjects()
		peak := peakHeap(func() { _ = Check(c.src) })
		runtime.GC()
		left := heapObjects()
		runtime.KeepAlive(c.src)
		if peak > base && peak-base > bound {
			t.Errorf("%s: Check's heap peaked %.1f MB over its baseline, bound %.1f MB", c.name, mb(peak-base), mb(bound))
		}
		if left > base && left-base > 1<<20 {
			t.Errorf("%s: %.1f MB still live after Check and a collection", c.name, mb(left-base))
		}
	}
}

func mb(n uint64) float64 { return float64(n) / (1 << 20) }
