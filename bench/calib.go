package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Host speed. The virtual machines this benchmark runs on share physical
// cores with other tenants, and whenever a neighbour is busy, code that is
// bound by instruction throughput — the scorer, the JSON codec, the
// kernel's TCP path — runs up to 1.5x slower for tens of seconds at a time
// (README.md, "Host noise"). Longer windows do not average that away. So
// the generator measures the host while it measures the program: between
// slices of a window it times a fixed unit of work of the same kind
// (tokenise, look up in a map, scatter into an array), and every duration
// in the slice is rescaled to what the reference host would have shown.

// hostRefRate is how many calibration units a second one processor of the
// reference host completes when its neighbours are quiet. It only fixes
// the unit of the rescaled times; comparing two runs needs no agreement on
// it, only that both use the same constant.
const hostRefRate = 110000.0

var (
	calibText = strings.Repeat(`  always @(posedge clk_i or negedge rst_n) begin
    if (!rst_n) state_q <= 8'h3C; else state_q <= (state_q ^ {din[6:0], carry}) + 32'hDEADBEEF;
  end
  assign sum_o = opa + opb; wire [15:0] mix = {opa[7:0], opb[7:0]} ^ 16'hA5A5;
`, 8)
	calibDict = func() map[string]int32 {
		d := map[string]int32{}
		for i := 0; i < 4096; i++ {
			d[fmt.Sprintf("ident_%d", i)] = int32(i)
		}
		for i, w := range strings.FieldsFunc(calibText, func(r rune) bool { return !isWordByte(byte(r)) }) {
			if _, ok := d[w]; !ok {
				d[w] = int32(4096 + i)
			}
		}
		return d
	}()
)

func isWordByte(c byte) bool {
	return c == '_' || c == '\'' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// calibUnit is one unit of calibration work. acc is the caller's scratch
// array, so concurrent callers share nothing.
func calibUnit(acc *[8192]float64) {
	text, start := calibText, -1
	for i := 0; i <= len(text); i++ {
		c := byte(' ')
		if i < len(text) {
			c = text[i]
		}
		if isWordByte(c) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			id := calibDict[text[start:i]]
			acc[(int(id)*31+i)&8191] += 0.5
			start = -1
		}
		if c > ' ' {
			acc[(int(c)*131+i)&8191] += 0.25
		}
	}
}

// hostSensitivity is how much of the calibration unit's slow-down the
// workloads show: fitted over runs during which the host's speed ranged
// from 0.57 to 1.23, throughput followed speed^0.67 on the scoring-bound
// workloads and speed^0.97 on the transport-bound one (README.md, "Host
// noise"). One exponent between them serves all four.
const hostSensitivity = 0.8

// hostSpeed runs calibration units for d on the calling goroutine and
// returns the host's speed for the kind of code the workloads run: 1 is
// the quiet reference host, 0.7 a host on which that code currently runs
// at 70 % of that speed.
func hostSpeed(d time.Duration) float64 {
	var acc [8192]float64
	n := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 8; i++ {
			calibUnit(&acc)
		}
		n += 8
	}
	calibSink += uint64(acc[1])
	rate := float64(n) / time.Since(start).Seconds()
	return math.Pow(rate/hostRefRate, hostSensitivity)
}

// hostMeter samples the host's speed on the processor everything is pinned
// to.
type hostMeter struct {
	burst   time.Duration
	samples []float64
}

// calibBurst is how long one sample runs: long enough for a few hundred
// units, short against a slice.
const calibBurst = 25 * time.Millisecond

func newHostMeter(plan schedule) *hostMeter {
	return &hostMeter{burst: min(calibBurst, plan.slice/8)}
}

func (m *hostMeter) sample() float64 {
	h := hostSpeed(m.burst)
	m.samples = append(m.samples, h)
	return h
}

// timed runs fn and returns its duration in seconds, rescaled by the mean
// of the host's speed just before and just after.
func (m *hostMeter) timed(fn func()) float64 {
	before := m.sample()
	start := time.Now()
	fn()
	took := time.Since(start).Seconds()
	return took * (before + m.sample()) / 2
}

// calibMS times a fixed integer spin. It does not depend on the program
// under test, so a different value between two result files means a
// different or busier host, not a different commit.
func calibMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start)) / 1e6
}

var calibSink uint64
