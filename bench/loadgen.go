package main

import (
	"time"
)

// doFunc issues one request and returns the whole response; conn.do is
// the real one, tests substitute a stalling responder.
type doFunc func(method, path string, body []byte) (status int, respBody []byte, err error)

// request is one generated operation. cands is how many audit candidates
// it carries (0 for a publish).
type request struct {
	path  string
	body  []byte
	cands int
}

// keepEvery is the sampling stride of the output check: every 64th
// response of a lane is kept whole and compared with the offline oracle
// after the window.
const keepEvery = 64

// kept is one sampled response.
type kept struct {
	seq  int // request number within the lane, counted from its first request
	body []byte
}

// laneStats is what one load-issuing goroutine measured in one slice of a
// window, or, after merge, what all lanes measured in all counted slices.
// Only requests that started inside a slice are counted.
type laneStats struct {
	latNS     []int64 // one per counted request, as the clock showed it
	normNS    []int64 // the same rescaled to the reference host (see calib.go)
	lateNS    []int64 // open loop only: how long after its due time each request was sent
	cands     int     // candidates answered 200
	attempted int     // every request sent
	failed    int     // transport error, non-200 (429 included), or check mismatch
	kept      []kept
	lastEnd   time.Time // when the last request was answered
	busyS     float64   // after merge: seconds the counted slices lasted
	normBusyS float64   // ... rescaled to the reference host
}

// window is one slice of traffic: requests start in [open, close).
type window struct{ open, close time.Time }

// closedLoop issues next(0), next(1), ... one at a time, each only after
// the previous reply, until the slice closes. ok inspects a 200 body and
// reports whether it is well-formed; sampled responses are kept for the
// oracle.
func closedLoop(do doFunc, w window, next func(seq int) request, ok func(body []byte) bool) laneStats {
	var st laneStats
	for seq := 0; ; seq++ {
		start := time.Now()
		if !start.Before(w.close) {
			break
		}
		req := next(seq)
		status, body, err := do("POST", req.path, req.body)
		st.lastEnd = time.Now()
		st.attempted++
		if err != nil || status != 200 || !ok(body) {
			st.failed++
			continue
		}
		st.cands += req.cands
		st.latNS = append(st.latNS, int64(st.lastEnd.Sub(start)))
		if seq%keepEvery == 0 {
			st.kept = append(st.kept, kept{seq, append([]byte(nil), body...)})
		}
	}
	return st
}

// openLoop issues request k at w.open+k*interval whether or not the server
// kept up; when it did not, later requests go out late and their latency,
// measured from the due time, carries the stall. A closed loop would
// instead slow down with the server and hide it (coordinated omission).
// ok is called for every 200, in order.
func openLoop(do doFunc, w window, interval time.Duration,
	next func(k int) request, ok func(k int, body []byte) bool) laneStats {
	var st laneStats
	for k := 0; ; k++ {
		due := w.open.Add(time.Duration(k) * interval)
		if !due.Before(w.close) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		req := next(k)
		sent := time.Now()
		status, body, err := do("POST", req.path, req.body)
		st.lastEnd = time.Now()
		st.attempted++
		if err != nil || status != 200 || !ok(k, body) {
			st.failed++
			continue
		}
		st.latNS = append(st.latNS, int64(st.lastEnd.Sub(due)))
		st.lateNS = append(st.lateNS, int64(sent.Sub(due)))
	}
	return st
}

// merge adds one slice of one lane to st. speed is the host's speed during
// the slice: a request that took 1 ms while the host ran at 0.8 of the
// reference would have taken 0.8 ms there.
func (st *laneStats) merge(o laneStats, speed float64) {
	st.latNS = append(st.latNS, o.latNS...)
	for _, ns := range o.latNS {
		st.normNS = append(st.normNS, int64(float64(ns)*speed))
	}
	st.lateNS = append(st.lateNS, o.lateNS...)
	st.cands += o.cands
	st.attempted += o.attempted
	st.failed += o.failed
}

// schedule is how a run's traffic is cut up: warm slices that are sent
// but not counted, then counted ones, the host's speed sampled between
// every two.
type schedule struct {
	warm, counted int
	slice         time.Duration
}

func (p schedule) seconds() float64 { return float64(p.warm+p.counted) * p.slice.Seconds() }

// sliceLen is the length of one slice. The host changes speed over tens of
// seconds, so a second between two samples follows it closely, while the
// request in flight when a slice closes is a small share of the slice.
const sliceLen = time.Second

// scheduleFor cuts warm-up and window into slices; a window shorter than
// four slices (-smoke, the tests) is cut into four anyway.
func scheduleFor(warmup, window time.Duration) schedule {
	slice := min(sliceLen, window/4)
	n := func(d time.Duration) int { return max(1, int((d+slice/2)/slice)) }
	return schedule{warm: n(warmup), counted: n(window), slice: slice}
}

// runSlices runs one slice after another. lanes starts the slice's
// load-issuing loops and returns what each measured; the host's speed is
// sampled before the first slice and after every one, and a slice is
// rescaled by the mean of the samples on either side of it. add receives
// every lane of every slice, counted or warm-up, with that speed. The
// returned seconds are how long the counted slices lasted, by the clock
// and rescaled.
func runSlices(plan schedule, host *hostMeter, lanes func(w window) []laneStats,
	add func(lane int, st laneStats, counted bool, speed float64)) (busyS, normBusyS float64) {
	before := host.sample()
	for s := 0; s < plan.warm+plan.counted; s++ {
		open := time.Now()
		per := lanes(window{open, open.Add(plan.slice)})
		end := open.Add(plan.slice)
		for _, st := range per {
			if st.lastEnd.After(end) {
				end = st.lastEnd
			}
		}
		after := host.sample()
		speed := (before + after) / 2
		before = after
		counted := s >= plan.warm
		if counted {
			busyS += end.Sub(open).Seconds()
			normBusyS += end.Sub(open).Seconds() * speed
		}
		for lane, st := range per {
			add(lane, st, counted, speed)
		}
	}
	return busyS, normBusyS
}
