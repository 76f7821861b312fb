package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req; a
// span's parent is the span of the wider entry point the same input went
// through. All spans are recorded from this program, around calls into
// each layer's public functions: the traced run replays the same inputs
// through successively narrower entry points, it does not instrument the
// program under test.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0: none
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// speed is the host's speed while the replay chains ran; the layer
	// metrics derived from their spans are rescaled by it.
	speed float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), speed: 1} }

func (t *tracer) add(parent, req int64, name string, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id, parent, req, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(parent, req int64, name string, fn func()) int64 {
	start := time.Now()
	fn()
	return t.add(parent, req, name, start, time.Now())
}

// wrap puts a span named name around every request of a lane; req is the
// lane in the high bits and the lane's request count in the low ones.
func (t *tracer) wrap(name string) wrapFunc {
	return func(lane int, do doFunc) doFunc {
		seq := int64(0)
		return func(method, path string, body []byte) (int, []byte, error) {
			start := time.Now()
			status, resp, err := do(method, path, body)
			t.add(0, int64(lane)<<32|seq, name, start, time.Now())
			seq++
			return status, resp, err
		}
	}
}

// selfNS is each span's self time: its duration minus its direct
// children's. In a replay the children ran as separate calls on the same
// input, so they are subtracted by duration, not by overlap; a child that
// measured longer than its parent makes the self time negative, and that
// is kept so medians are not biased upward.
func selfNS(spans []span) map[int64]int64 {
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName groups values (duration or self time) of spans by span name, as
// sorted microseconds.
func byName(spans []span, val func(span) int64) map[string][]float64 {
	ns := map[string][]int64{}
	for _, s := range spans {
		ns[s.Name] = append(ns[s.Name], val(s))
	}
	out := map[string][]float64{}
	for name, v := range ns {
		ms := msOf(v)
		for i := range ms {
			ms[i] *= 1000
		}
		out[name] = ms
	}
	return out
}

func (t *tracer) write(workload string) error {
	return writeJSON(filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload)), t.spans)
}

// Shares of -seconds the traced run gives its two windows of workload
// traffic; the replay that follows is count-based, not time-based, so its
// counts repeat exactly.
const (
	shareUntraced = 0.15
	shareTraced   = 0.30
)

// statsSampler polls /v1/stats twice a second during the traced window.
type statsSampler struct {
	stop     chan struct{}
	done     chan struct{}
	segs     []float64
	maxQueue int
	err      error
}

func startSampler(addr string) *statsSampler {
	s := &statsSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		c, err := dial(addr)
		if err != nil {
			s.err = err
			return
		}
		defer c.close()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			st, err := getStats(c)
			if err != nil {
				s.err = err
				return
			}
			s.segs = append(s.segs, float64(st.Segments))
			s.maxQueue = max(s.maxQueue, st.QueueDepth)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *statsSampler) finish() error {
	close(s.stop)
	<-s.done
	return s.err
}

// runTrace is the -trace 1 run of any workload. It has three parts: replay
// over TCP against the fresh server (floor, cold and memo-hit requests on
// one connection), the workload's own traffic untraced and then traced
// (generator validity, tracing overhead, server counters), and replay
// in-process through each layer's public entry point.
func runTrace(cfg runCfg) (*runResult, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, true)
	tr := newTracer()
	t := trafficFor(cfg.workload)

	half := cfg.size.warmup / 2
	untraced := scheduleFor(half, time.Duration(shareUntraced*float64(cfg.window())))
	traced := scheduleFor(half, time.Duration(shareTraced*float64(cfg.window())))
	host := newHostMeter(traced)
	prep := cfg
	prep.size.setups = 1
	prep.seconds = untraced.seconds() + traced.seconds() // inputs for both windows
	env, _, err := bringUp(prep, host, func(names, texts []string) { t.prepare(prep, names, texts) })
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	in := newReplayInputs(cfg, env.texts)
	fx, err := newFixtures(res, host, env)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if err := replayChains(res, tr, host, env, fx, in); err != nil {
		return nil, err
	}

	// The workload's traffic, untraced: the baseline tracing is compared to.
	base, _, err := t.drive(env.srv.addr, untraced, host, noWrap)
	if err != nil {
		return nil, err
	}

	// The same traffic, every request in a span, the server's counters read
	// at both ends and sampled in between.
	statsConn, err := dial(env.srv.addr)
	if err != nil {
		return nil, err
	}
	defer statsConn.close()
	st0, err := getStats(statsConn)
	if err != nil {
		return nil, err
	}
	srvCPU0, err := procCPUSeconds(env.srv.pid())
	if err != nil {
		return nil, err
	}
	genCPU0, samples0 := selfCPUSeconds(), len(host.samples)
	sampler := startSampler(env.srv.addr)
	audits, publishes, err := t.drive(env.srv.addr, traced, host, tr.wrap("window:"+cfg.workload))
	if serr := sampler.finish(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	st1, err := getStats(statsConn)
	if err != nil {
		return nil, err
	}
	srvCPU1, err := procCPUSeconds(env.srv.pid())
	if err != nil {
		return nil, err
	}
	// The generator's own cost, without the host-speed samples it took.
	calibCPU := float64(len(host.samples)-samples0) * host.burst.Seconds()
	genCPU := max(0, selfCPUSeconds()-genCPU0-calibCPU)
	srvCPU := srvCPU1 - srvCPU0
	if len(base.latNS) == 0 {
		return nil, fmt.Errorf("no audit completed inside the untraced window")
	}
	if _, err := finishAudits(res, audits); err != nil {
		return nil, err
	}

	// Both medians are rescaled by the host's speed in their own window, so
	// the difference is the tracing and not the host drifting between them.
	baseP50, _ := percentile(msOf(base.normNS), 0.50)
	res.set("loadgen.trace_overhead_share", (res.Metrics["audit_p50_ms"].Value-baseP50)/baseP50, len(audits.latNS))
	res.set("loadgen.cpu_share", ratio(genCPU, genCPU+srvCPU), 0)
	res.set("loadgen.calib_ms", calibMS(), 0)
	if p, ok := t.(*publishMixed); ok {
		res.setTail("loadgen.publish_late_p95_ms", msOf(publishes.lateNS), 0.95)
		for _, e := range p.errs {
			res.problem(e)
		}
	}
	dAudits := float64(st1.Audits - st0.Audits)
	res.set("serve.cache_hit_share", ratio(float64(st1.AuditCacheHits-st0.AuditCacheHits), dAudits), int(dAudits))
	res.set("serve.batch_size_mean", ratio(float64(st1.BatchedAudits-st0.BatchedAudits), float64(st1.Batches-st0.Batches)), int(st1.Batches-st0.Batches))
	res.set("serve.rejected", float64(st1.Rejected-st0.Rejected), 0)
	res.set("serve.queue_depth_max", float64(sampler.maxQueue), len(sampler.segs))
	res.set("serve.segments_mean", mean(sampler.segs), len(sampler.segs))
	res.set("serve.segments_max", maxOf(sampler.segs), len(sampler.segs))
	res.set("serve.cpu_ms_per_1k_audits", ratio(srvCPU*1000, dAudits/1000), int(dAudits))

	mismatches, err := t.verify(res, env)
	if err != nil {
		return nil, err
	}
	res.Attempted += base.attempted + publishes.attempted
	res.Failed += base.failed + publishes.failed + mismatches

	if err := replayWrites(res, t, env, in); err != nil {
		return nil, err
	}
	env.teardown() // the processors and the memory are the replay's now
	if err := replayLayers(res, host, cfg, env, fx, in); err != nil {
		return nil, err
	}
	layerMetricsFromSpans(res, tr)
	if err := tr.write(cfg.workload); err != nil {
		return nil, err
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
