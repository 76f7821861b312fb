package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize bounds the latency sample window; a power of two keeps the
// modulo cheap. 2048 recent audits is enough for stable p50/p99 under load
// while keeping /v1/stats snapshots O(window), not O(lifetime).
const latRingSize = 2048

// latRing records recent request durations for percentile reporting. The
// ring overwrites oldest-first, so percentiles always describe the most
// recent window rather than the whole process lifetime.
type latRing struct {
	mu  sync.Mutex
	buf [latRingSize]int64 // nanoseconds
	n   int64              // total recorded (ring index = n % size)
}

func (l *latRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%latRingSize] = int64(d)
	l.n++
	l.mu.Unlock()
}

// percentiles returns the p50 and p99 of the recorded window, in
// milliseconds. Zero when nothing has been recorded.
func (l *latRing) percentiles() (p50, p99 float64) {
	l.mu.Lock()
	n := l.n
	if n > latRingSize {
		n = latRingSize
	}
	window := make([]int64, n)
	copy(window, l.buf[:n])
	l.mu.Unlock()
	if len(window) == 0 {
		return 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(window)-1))
		return float64(window[i]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}

// rateWindowSecs is the qps reporting window: /v1/stats advertises recent
// throughput, not a lifetime average that a traffic lull can never move.
const rateWindowSecs = 60

// rateWindow counts requests in per-second buckets over a sliding window.
// The ring holds a few spare seconds beyond the window so a bucket is
// never read and overwritten for the same instant at the boundary.
type rateWindow struct {
	mu      sync.Mutex
	buckets [rateWindowSecs + 4]struct{ sec, n int64 }
}

// tick records one request at now.
func (rw *rateWindow) tick(now time.Time) {
	sec := now.Unix()
	i := sec % int64(len(rw.buckets))
	rw.mu.Lock()
	if rw.buckets[i].sec != sec {
		rw.buckets[i].sec, rw.buckets[i].n = sec, 0
	}
	rw.buckets[i].n++
	rw.mu.Unlock()
}

// rate returns requests/second over the window ending at now. While uptime
// is shorter than the window the divisor shrinks with it (floored at one
// second), so a fresh server reports its actual early rate instead of a
// number diluted by seconds it has not lived.
func (rw *rateWindow) rate(now time.Time, uptime float64) float64 {
	sec := now.Unix()
	var total int64
	rw.mu.Lock()
	for _, b := range rw.buckets {
		if b.sec > sec-rateWindowSecs && b.sec <= sec {
			total += b.n
		}
	}
	rw.mu.Unlock()
	window := float64(rateWindowSecs)
	if uptime < window {
		window = uptime
	}
	if window < 1 {
		window = 1
	}
	return float64(total) / window
}

// metrics holds the service counters surfaced by /v1/stats.
type metrics struct {
	audits         atomic.Int64
	auditCacheHits atomic.Int64
	syntaxChecks   atomic.Int64
	scans          atomic.Int64
	filters        atomic.Int64
	corpusPosts    atomic.Int64
	rejected       atomic.Int64
	violations     atomic.Int64
	batches        atomic.Int64
	batchedJobs    atomic.Int64
	lat            latRing
	rate           rateWindow
}
