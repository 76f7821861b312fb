package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare for one (workload, end-to-end metric).
const (
	verdictRegressed  = "regressed"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// failShareBound is fail_share's bound: absolute, not relative, because
// its base is 0.
const failShareBound = 0.001

// series is one metric's values over the runs of one result file.
type series struct {
	values []float64
}

func (s series) median() float64 { return median(s.values) }

// spread is the distance between the quartiles as a share of the median.
func (s series) spread() float64 {
	q1, q3 := quartiles(s.values)
	return ratio(q3-q1, math.Abs(s.median()))
}

// judge compares B (the change) with A (the parent) for a metric with a
// bound. worsening is the relative amount B's median is worse than A's.
// When either side's own runs spread wider than the bound and the two
// sides' runs interleave, the data cannot tell a regression from noise:
// that is unresolved, not unchanged.
func judge(d metricDef, a, b series) (verdict string, worsening float64) {
	worsening = ratio(b.median()-a.median(), math.Abs(a.median()))
	if d.higher {
		worsening = -worsening
	}
	worse := func(x, y float64) bool { // x worse than y
		if d.higher {
			return x < y
		}
		return x > y
	}
	allBBetter, allBWorse := true, true
	for _, x := range a.values {
		for _, y := range b.values {
			if !worse(x, y) {
				allBBetter = false
			}
			if !worse(y, x) {
				allBWorse = false
			}
		}
	}
	noisy := max(a.spread(), b.spread()) > d.bound && !allBBetter && !allBWorse
	switch {
	case noisy:
		return verdictUnresolved, worsening
	case worsening > d.bound:
		return verdictRegressed, worsening
	default:
		return verdictWithin, worsening
	}
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// collect groups a file's values by workload and metric; traced runs hold
// layer metrics, untraced ones end-to-end metrics, so the names never
// collide. fail holds failed and attempted operations per workload.
func collect(f *resultFile) (vals map[string]map[string]series, fail map[string][2]int) {
	vals = map[string]map[string]series{}
	fail = map[string][2]int{}
	for _, r := range f.Runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string]series{}
		}
		for name, v := range r.Metrics {
			s := vals[r.Workload][name]
			s.values = append(s.values, v.Value)
			vals[r.Workload][name] = s
		}
		c := fail[r.Workload]
		fail[r.Workload] = [2]int{c[0] + r.Failed, c[1] + r.Attempted}
	}
	return vals, fail
}

// compareFiles prints, per workload and metric, both medians and
// quartiles, the relative change, and for end-to-end metrics a verdict. It
// returns 1 when anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := loadResults(pathA)
	if err == nil {
		var fb *resultFile
		if fb, err = loadResults(pathB); err == nil {
			return compareResults(w, fa, fb)
		}
	}
	fmt.Fprintln(os.Stderr, "bench -compare:", err)
	return 2
}

func compareResults(w io.Writer, fa, fb *resultFile) int {
	fmt.Fprintf(w, "A: commit %s, %s, %d processors, calib %.1f ms, load %.2f, %d runs\n",
		fa.Env.Commit, fa.Env.GoVersion, fa.Env.NProc, fa.Env.CalibMS, fa.Env.LoadavgStart, len(fa.Runs))
	fmt.Fprintf(w, "B: commit %s, %s, %d processors, calib %.1f ms, load %.2f, %d runs\n",
		fb.Env.Commit, fb.Env.GoVersion, fb.Env.NProc, fb.Env.CalibMS, fb.Env.LoadavgStart, len(fb.Runs))
	if math.Abs(ratio(fb.Env.CalibMS-fa.Env.CalibMS, fa.Env.CalibMS)) > 0.10 {
		fmt.Fprintln(w, "warning: the generator's calibration spin differs by more than 10%: a different or busier host")
	}
	if fa.Env.WindowS != fb.Env.WindowS || fa.Env.Smoke != fb.Env.Smoke {
		fmt.Fprintln(w, "warning: the two files were run with different windows or sizes")
	}
	noisy := fa.Env.Noisy || fb.Env.Noisy
	if noisy {
		fmt.Fprintln(w, "noisy: a file started on a host busier than its processors; nothing is called within-bound")
	}
	va, failA := collect(fa)
	vb, failB := collect(fb)
	regressed := 0
	for _, wl := range workloadNames {
		if va[wl] == nil || vb[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", wl)
		fmt.Fprintf(w, "  %-38s %12s %25s %12s %25s %8s  %s\n", "metric", "A median", "A quartiles", "B median", "B quartiles", "change", "")
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				a, okA := va[wl][d.name]
				b, okB := vb[wl][d.name]
				if !okA || !okB {
					continue
				}
				a1, a3 := quartiles(a.values)
				b1, b3 := quartiles(b.values)
				line := fmt.Sprintf("  %-38s %12.4f %25s %12.4f %25s %+7.1f%%", d.name,
					a.median(), fmt.Sprintf("[%.4f, %.4f]", a1, a3),
					b.median(), fmt.Sprintf("[%.4f, %.4f]", b1, b3),
					100*ratio(b.median()-a.median(), math.Abs(a.median())))
				if d.bound > 0 {
					v, _ := judge(d, a, b)
					if v == verdictWithin && noisy {
						v = verdictUnresolved
					}
					if v == verdictRegressed {
						regressed++
					}
					line += fmt.Sprintf("  %s (bound %.2f)", v, d.bound)
				}
				fmt.Fprintln(w, line)
			}
		}
		sa := ratio(float64(failA[wl][0]), float64(failA[wl][1]))
		sb := ratio(float64(failB[wl][0]), float64(failB[wl][1]))
		v := verdictWithin
		if sb-sa > failShareBound {
			v = verdictRegressed
			regressed++
		} else if noisy {
			v = verdictUnresolved
		}
		fmt.Fprintf(w, "  %-38s %12.6f %25s %12.6f %25s %8s  %s (bound +%.3f absolute)\n", "fail_share",
			sa, fmt.Sprintf("%d of %d", failA[wl][0], failA[wl][1]), sb, fmt.Sprintf("%d of %d", failB[wl][0], failB[wl][1]), "", v, failShareBound)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "\n%d regressed\n", regressed)
		return 1
	}
	fmt.Fprintln(w, "\nnothing regressed")
	return 0
}
