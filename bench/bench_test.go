package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The program addresses everything relative to the repository root.
func TestMain(m *testing.M) {
	// curate_offline re-executes its own binary; under go test that is the
	// test binary, which then has to act as the program.
	if len(os.Args) > 1 && os.Args[1] == "-curate-child" {
		os.Exit(run(os.Args[1:]))
	}
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	runCleanups()
	if code == 0 {
		if err := nothingLeftBehind(); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// nothingLeftBehind fails the package when a freeset-serve child is still
// running or a temporary directory was not removed.
func nothingLeftBehind() error {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "freeset-serve"))
	if err != nil {
		return err
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if cmd, err := os.ReadFile(p); err == nil && strings.HasPrefix(string(cmd), bin+"\x00") {
			return fmt.Errorf("leaked child process: %s", strings.ReplaceAll(string(cmd), "\x00", " "))
		}
	}
	left, _ := filepath.Glob(filepath.Join(outDir, "tmp", "*"))
	if len(left) > 0 {
		return fmt.Errorf("temporary directories not removed: %v", left)
	}
	return nil
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{21, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{100000, 0.999, 99900, true},
	} {
		got, ok := percentile(mk(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing must not be reported")
	}
	res := newResult(wlPublishMixed, 1, 1, false)
	res.setLatency("publish", mk(50))
	if !slices.Contains(res.Skipped, "publish_p95_ms") || slices.Contains(res.Skipped, "publish_p50_ms") {
		t.Errorf("50 samples support a median but no p95; Skipped = %v", res.Skipped)
	}
}

// Quartiles must be the ones Python's statistics.quantiles(v, n=4) gives,
// because the acceptance check computes spreads with it.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles(10,30,20) = %v, %v; Python gives 10, 30", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// An open loop must charge a stall to the requests that waited behind it.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	const stall = 100 * time.Millisecond
	calls := 0
	do := func(method, path string, body []byte) (int, []byte, error) {
		calls++
		if calls == 3 {
			time.Sleep(stall)
		}
		return 200, []byte("{}"), nil
	}
	first := time.Now()
	w := window{first, first.Add(40 * interval)}
	st := openLoop(do, w, interval,
		func(k int) request { return request{path: "/v1/corpus"} },
		func(int, []byte) bool { return true })
	if st.attempted != 40 || st.failed != 0 {
		t.Fatalf("attempted %d, failed %d; the schedule has 40 requests and none may be dropped", st.attempted, st.failed)
	}
	// Request 3 (index 2) stalls; request 4 was due 5 ms into the stall and
	// could only be sent after it, so its latency from the due time is
	// nearly the whole stall. Measured from the send time it would be ~0.
	if got := time.Duration(st.latNS[3]); got < stall-2*interval {
		t.Errorf("request behind the stall measured %v; from its due time it waited at least %v", got, stall-2*interval)
	}
	if got := time.Duration(st.lateNS[3]); got < stall-2*interval {
		t.Errorf("lateness of the request behind the stall = %v, want at least %v", got, stall-2*interval)
	}
	// The backlog drains: the last requests are on time again.
	if got := time.Duration(st.latNS[39]); got > stall/2 {
		t.Errorf("last request still measured %v; the backlog should have drained", got)
	}
}

// fail_share counts refusals (429), transport errors and malformed answers.
func TestClosedLoopCountsFailures(t *testing.T) {
	calls := 0
	do := func(method, path string, body []byte) (int, []byte, error) {
		calls++
		switch calls % 4 {
		case 0:
			return 429, []byte(`{"error":{"code":"queue_full"}}`), nil
		case 1:
			return 0, nil, errors.New("connection reset")
		case 2:
			return 200, []byte("garbage"), nil
		}
		return 200, []byte(`{"violation":false}`), nil
	}
	now := time.Now()
	st := closedLoop(do, window{now, now.Add(50 * time.Millisecond)},
		func(int) request { return request{path: "/v1/audit", cands: 1} }, auditOK)
	if st.attempted < 8 {
		t.Fatalf("only %d requests in 50 ms", st.attempted)
	}
	good := st.attempted - st.failed
	if good != st.cands || len(st.latNS) != good {
		t.Errorf("%d good requests, but %d candidates and %d latencies counted", good, st.cands, len(st.latNS))
	}
	if want := st.attempted / 4; good < want-1 || good > want+1 {
		t.Errorf("%d of %d counted good; one in four is", good, st.attempted)
	}
}

// Warm-up slices are sent but not counted, and every counted slice is
// rescaled by the host speed sampled on either side of it.
func TestSlicesWarmupAndRescaling(t *testing.T) {
	plan := schedule{warm: 2, counted: 3, slice: 10 * time.Millisecond}
	host := newHostMeter(plan)
	var total laneStats
	slices, countedSlices := 0, 0
	busy, norm := runSlices(plan, host,
		func(w window) []laneStats {
			slices++
			time.Sleep(time.Until(w.close))
			return []laneStats{{latNS: []int64{1_000_000}, cands: 1, attempted: 1, lastEnd: time.Now()}}
		},
		func(_ int, st laneStats, counted bool, speed float64) {
			if counted {
				countedSlices++
				total.merge(st, speed)
			}
		})
	if slices != 5 || countedSlices != 3 || total.cands != 3 {
		t.Fatalf("%d slices run, %d counted, %d candidates; want 5, 3, 3", slices, countedSlices, total.cands)
	}
	if len(host.samples) != 6 {
		t.Errorf("%d host samples for 5 slices, want one before the first and one after each", len(host.samples))
	}
	if busy < 0.030 || busy > 0.2 {
		t.Errorf("counted slices lasted %v s, want about 0.03", busy)
	}
	for i, ns := range total.normNS {
		speed := (host.samples[2+i] + host.samples[3+i]) / 2
		if want := int64(1e6 * speed); ns != want {
			t.Errorf("slice %d: 1 ms at host speed %.3f rescaled to %d ns, want %d", i, speed, ns, want)
		}
	}
	if got := norm / busy; got < minOf(host.samples) || got > maxOf(host.samples) {
		t.Errorf("rescaled/clock time = %.3f, outside the sampled host speeds %v", got, host.samples)
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "tcp", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "handler", StartNS: 1000, EndNS: 1060}, // replayed later: not inside its parent's interval
		{ID: 3, Parent: 2, Name: "best", StartNS: 2000, EndNS: 2045},
		{ID: 4, Parent: 3, Name: "tokenize", StartNS: 3000, EndNS: 3010},
		{ID: 5, Name: "tcp", StartNS: 0, EndNS: 30},
		{ID: 6, Parent: 5, Name: "handler", StartNS: 0, EndNS: 50}, // child slower than parent: negative self, kept
	}
	self := selfNS(spans)
	for id, want := range map[int64]int64{1: 40, 2: 15, 3: 35, 4: 10, 5: -20, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	var sum int64
	for _, id := range []int64{1, 2, 3, 4} {
		sum += self[id]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times of a chain sum to %d, the outer span lasted %d", sum, spans[0].dur())
	}
}

// Equal seeds give byte-identical inputs, different seeds different ones.
func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) []byte {
		size := smokeSizing()
		_, texts := baseCorpus(seed, 50)
		var buf bytes.Buffer
		cs := newColdStream(seed, 0, texts, size.nearDupPct)
		for i := 0; i < 50; i++ {
			buf.WriteString(cs.next())
		}
		tr := resampleTraffic()
		cfg := runCfg{seed: seed, seconds: 1, size: size}
		tr.prepare(cfg, nil, texts)
		for i := 0; i < 200; i++ {
			buf.Write(tr.next(i%lanes(), i/lanes()).body)
		}
		ds := newDeltaStream(seed, 0, texts, size.deltaDocs)
		for i := 0; i < 5; i++ {
			docs, remove := ds.next()
			buf.Write(publishBody("delta", docs, remove))
		}
		return buf.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Error("two generations with seed 7 differ")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 generated the same inputs")
	}
}

func TestColdStreamNeverRepeats(t *testing.T) {
	_, texts := baseCorpus(1, 20)
	seen := map[string]bool{}
	for lane := 0; lane < 2; lane++ {
		cs := newColdStream(1, lane, texts, 10)
		for i := 0; i < 3000; i++ {
			c := cs.next()
			if seen[c] {
				t.Fatalf("lane %d candidate %d repeats an earlier one: the verdict memo would hit", lane, i)
			}
			seen[c] = true
		}
	}
}

func TestDeltaStreamKeepsTheCorpusSize(t *testing.T) {
	names, texts := baseCorpus(1, 20)
	p := &publishMixed{}
	ds := newDeltaStream(1, 0, texts, 4)
	for k := 0; k < 6; k++ {
		docs, remove := ds.next()
		p.deltas = append(p.deltas, delta{docs: docs, remove: remove})
	}
	p.acked = []int{0, 1, 2, 4, 5} // delta 3 was never acknowledged
	liveNames, liveTexts := p.live(names, texts)
	// 0,1,2 chain; 4 removes 3's (absent) documents, so 2's stay; 5 removes 4's.
	if want := len(names) + 2*4; len(liveNames) != want || len(liveTexts) != want {
		t.Fatalf("%d live documents, want %d", len(liveNames), want)
	}
	if got := liveNames[len(names)]; !strings.HasPrefix(got, "delta0_00002_") {
		t.Errorf("first surviving delta document is %s, want one of delta 2", got)
	}
}

// corruptingTraffic alters one sampled response before the output check.
type corruptingTraffic struct{ *auditTraffic }

func (c corruptingTraffic) verify(res *runResult, env *served) (int, error) {
	body := c.kept[0][0].body
	var resp map[string]any
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	resp["violation"] = !resp["violation"].(bool)
	c.kept[0][0].body, _ = json.Marshal(resp)
	return c.auditTraffic.verify(res, env)
}

func smokeCfg(t *testing.T, workload string) runCfg {
	t.Helper()
	bin, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	return runCfg{workload: workload, seed: 3, seconds: 0.3, smoke: true, size: smokeSizing(), bin: bin}
}

// One wrong verdict among the sampled responses must fail the run.
func TestCorruptedVerdictFailsTheRun(t *testing.T) {
	res, err := runServed(smokeCfg(t, wlAuditCold), corruptingTraffic{coldTraffic()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || len(res.Problems) != 1 {
		t.Fatalf("correct=%v failed=%d problems=%v; want exactly the corrupted verdict reported", res.Correct, res.Failed, res.Problems)
	}
	if exitCode(res) == 0 {
		t.Error("a run with an output mismatch must exit non-zero")
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || line.Correct || line.Failed != 1 {
		t.Errorf("result line reports correct=%v failed=%d (err %v)", line.Correct, line.Failed, err)
	}
}

// -smoke runs all four workloads with every output check on.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	if code := run([]string{"-smoke", "-seed", "5", "-out", out}); code != 0 {
		t.Fatalf("bench -smoke exited %d", code)
	}
	f, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != len(workloadNames) {
		t.Fatalf("%d runs in the result file, want %d", len(f.Runs), len(workloadNames))
	}
	for _, r := range f.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		for _, d := range endToEnd {
			v, ok := r.Metrics[d.name]
			if d.appliesTo(r.Workload) != ok {
				t.Errorf("%s: metric %s present=%v, the table says %v", r.Workload, d.name, ok, d.appliesTo(r.Workload))
			}
			if ok && !(v.Value > 0) {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", r.Workload, d.name, v.Value)
			}
		}
	}
	e := f.Env
	if e.GoVersion == "" || e.NProc == 0 || e.GOMAXPROCS == 0 || e.Kernel == "" || e.CalibMS <= 0 ||
		e.Seed != 5 || e.WindowS != 1 || e.Commit == "" || e.Started.IsZero() {
		t.Errorf("incomplete environment record: %+v", e)
	}
	if cmp := compareResults(new(bytes.Buffer), f, f); cmp != 0 {
		t.Errorf("a result file compared with itself: exit %d", cmp)
	}
}

// The traced run produces every per-layer metric. publish_mixed has the most
// of its own in that path; the other workloads' traced runs differ from it
// only in the traffic of the two windows.
func TestTraceSmoke(t *testing.T) {
	for _, wl := range []string{wlPublishMixed} {
		cfg := smokeCfg(t, wl)
		cfg.seconds, cfg.trace = 1, true
		res, err := runTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d %v", wl, res.Correct, res.Failed, res.Problems)
		}
		for _, d := range universal(perLayer) {
			if v, ok := res.Metrics[d.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s traced: %s = %v (present %v)", wl, d.name, v.Value, ok)
			}
		}
		if share := res.Metrics["serve.accounted_cold_share"].Value; share < 0.8 || share > 1.2 {
			t.Errorf("%s traced: the layers account for %.2f of a cold request", wl, share)
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+wl+".json"))
		if err != nil || json.Unmarshal(data, &spans) != nil || len(spans) < replayCands {
			t.Errorf("%s: trace file: %d spans, err %v", wl, len(spans), err)
		}
		contractLine(res) // panics when a listed metric is missing
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "audit_p50_ms", bound: 0.10}
	higher := metricDef{name: "audits_per_s", higher: true, bound: 0.10}
	s := func(v ...float64) series { return series{v} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b series
		want string
	}{
		{"same", lower, s(1.00, 1.01, 0.99), s(1.00, 1.02, 0.98), verdictWithin},
		{"5% slower, tight runs", lower, s(1.00, 1.01, 0.99), s(1.05, 1.06, 1.04), verdictWithin},
		{"20% slower, tight runs", lower, s(1.00, 1.01, 0.99), s(1.20, 1.21, 1.19), verdictRegressed},
		{"20% slower, wide runs that interleave", lower, s(0.7, 1.0, 1.4, 1.1), s(0.9, 1.2, 1.5, 1.3), verdictUnresolved},
		{"same median, wide runs that interleave", lower, s(0.7, 1.0, 1.4), s(0.6, 1.0, 1.5), verdictUnresolved},
		{"wide runs, every B better than every A", lower, s(2.0, 2.5, 3.0), s(1.0, 1.3, 1.6), verdictWithin},
		{"wide runs, every B worse than every A", lower, s(1.0, 1.3, 1.6), s(2.0, 2.5, 3.0), verdictRegressed},
		{"throughput 20% lower", higher, s(1000, 1010, 990), s(800, 805, 795), verdictRegressed},
		{"throughput 20% higher", higher, s(1000, 1010, 990), s(1200, 1205, 1195), verdictWithin},
		{"single runs", lower, s(1.0), s(1.3), verdictRegressed},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesExitCodeAndNoisy(t *testing.T) {
	file := func(p50 float64, failed int, noisy bool) *resultFile {
		f := &resultFile{Env: envRecord{Noisy: noisy, CalibMS: 100, WindowS: 20}}
		for i := 0; i < 3; i++ {
			r := newResult(wlAuditCold, 1, 20, false)
			r.set("audit_p50_ms", p50*(1+0.001*float64(i)), 100)
			r.Attempted, r.Failed = 1000, failed
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(&out, file(1, 0, false), file(1.02, 0, false)); code != 0 || !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("2%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, file(1, 0, false), file(1.5, 0, false)); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("50%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, file(1, 0, false), file(1, 5, false)); code != 1 {
		t.Errorf("fail_share 0 -> 0.005 must regress: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(&out, file(1, 0, true), file(1.02, 0, false)); code != 0 || strings.Contains(out.String(), verdictWithin+" (") {
		t.Errorf("a noisy file must not yield within-bound: exit %d\n%s", code, out.String())
	}
}

// BENCHMARK.json and the tables in metrics.go must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d in BENCHMARK.json is %q (why: %d chars)", i, w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, universal(endToEnd))
	check("per_layer", bj.PerLayer, universal(perLayer))
	if len(bj.Workloads) != len(workloadNames) || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("%d workloads, run_seconds %d", len(bj.Workloads), bj.RunSeconds)
	}
}

func TestCleanupsRunOnceNewestFirst(t *testing.T) {
	dir, remove, err := tempDir("test-")
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	doneA := onExit(func() { order = append(order, 1) })
	onExit(func() { order = append(order, 2) })
	// What main does when a panic passes through it.
	func() {
		defer func() {
			recover()
			runCleanups()
		}()
		panic("boom")
	}()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("temporary directory survived the panic path: %v", err)
	}
	if fmt.Sprint(order) != "[2 1]" {
		t.Errorf("cleanups ran in order %v, want newest first", order)
	}
	doneA()
	remove()
	if fmt.Sprint(order) != "[2 1]" {
		t.Errorf("a cleanup ran twice: %v", order)
	}
}

func script(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-serve")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadinessFailurePrintsStderrTail(t *testing.T) {
	_, _, err := startServer(script(t, "echo 'fatal: the disk is on fire' >&2\nexit 3\n"))
	if err == nil || !strings.Contains(err.Error(), "the disk is on fire") {
		t.Fatalf("error %v does not carry the child's stderr", err)
	}
}

func TestBindRaceIsRetried(t *testing.T) {
	cfg := smokeCfg(t, wlAuditCold)
	marker := filepath.Join(t.TempDir(), "first-attempt-done")
	bin := script(t, fmt.Sprintf(`if [ ! -e %q ]; then
  touch %q
  echo 'listen tcp 127.0.0.1:1: bind: address already in use' >&2
  exit 1
fi
exec %q "$@"
`, marker, marker, cfg.bin))
	srv, _, err := startServer(bin)
	if err != nil {
		t.Fatalf("the second attempt should have succeeded: %v", err)
	}
	if err := srv.stop(); err != nil {
		t.Error(err)
	}
}

func TestStopEscalatesToKill(t *testing.T) {
	s, err := launch(script(t, "trap '' TERM\nwhile :; do sleep 1; done\n"), "127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	s.grace = 200 * time.Millisecond
	time.Sleep(50 * time.Millisecond) // let the shell install its trap
	start := time.Now()
	if err := s.stop(); err == nil {
		t.Error("stop of a child that ignores SIGTERM must say it had to kill")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("stop took %v", took)
	}
	select {
	case <-s.exited:
	default:
		t.Error("the child was not reaped")
	}
}
