package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// runCfg is one run of one workload.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	size     sizing
	bin      string // the freeset-serve binary; unused by curate_offline
}

func (c runCfg) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// plan is the slicing of the end-to-end run's traffic.
func (c runCfg) plan() schedule { return scheduleFor(c.size.warmup, c.window()) }

// lanes is how many connections issue load: never more than the host has
// processors, and never more than the two the workloads are defined with.
func lanes() int { return min(2, runtime.NumCPU()) }

// served is a freeset-serve child, started the way it is deployed (durable,
// -data-dir), with the base corpus published.
type served struct {
	srv          *server
	dir          string
	rmDir        func()
	names, texts []string
}

func (e *served) teardown() {
	if e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
	e.rmDir()
}

func serverArgs(dir string) []string { return []string{"-data-dir", dir, "-retain", "3"} }

// bringUp performs the whole set-up cfg.size.setups times — generate the
// inputs, start the server on an empty data directory, publish the base
// corpus durably, see it ready — and keeps the last. prepare generates the
// workload's own inputs from the base corpus; it is part of set-up, so
// work a change moves into input preparation or publishing shows in
// setup_s. The returned seconds are the median over the repetitions, each
// rescaled by the host's speed around it.
func bringUp(cfg runCfg, host *hostMeter, prepare func(names, texts []string)) (*served, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		env := &served{rmDir: func() {}}
		var err error
		took := host.timed(func() {
			env.names, env.texts = baseCorpus(cfg.seed, cfg.size.baseDocs)
			prepare(env.names, env.texts)
			if env.dir, env.rmDir, err = tempDir("data-"); err != nil {
				env.rmDir = func() {}
				return
			}
			if env.srv, _, err = startServer(cfg.bin, serverArgs(env.dir)...); err != nil {
				return
			}
			err = publishBase(env)
		})
		if err != nil {
			env.teardown()
			return nil, 0, err
		}
		times = append(times, took)
		if i == cfg.size.setups-1 {
			return env, median(times), nil
		}
		env.teardown()
	}
}

// corpusAck is the part of serve.CorpusResponse the generator checks.
type corpusAck struct {
	Version   int64 `json:"version"`
	Indexed   int   `json:"indexed"`
	Persisted bool  `json:"persisted"`
}

func publishBase(env *served) error {
	c, err := dial(env.srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, body, err := c.do("POST", "/v1/corpus", publishBody("", docsOf(env.names, env.texts), nil))
	if err != nil {
		return fmt.Errorf("publish base corpus: %w", err)
	}
	var ack corpusAck
	if status != 200 || json.Unmarshal(body, &ack) != nil || !ack.Persisted || ack.Indexed != len(env.names) {
		return fmt.Errorf("publish base corpus: status %d, body %.200s", status, body)
	}
	return nil
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	CorpusVersion  uint64 `json:"corpus_version"`
	CorpusLen      int    `json:"corpus_len"`
	Segments       int    `json:"segments"`
	Audits         int64  `json:"audits"`
	AuditCacheHits int64  `json:"audit_cache_hits"`
	Rejected       int64  `json:"rejected"`
	Batches        int64  `json:"batches"`
	BatchedAudits  int64  `json:"batched_audits"`
	QueueDepth     int    `json:"queue_depth"`
}

func getStats(c *conn) (serverStats, error) {
	var st serverStats
	status, body, err := c.do("GET", "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("/v1/stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// runLanes runs each load-issuing loop on its own goroutine and waits for
// all of them.
func runLanes(fns ...func() laneStats) []laneStats {
	out := make([]laneStats, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = fn()
		}()
	}
	wg.Wait()
	return out
}

func dialLanes(addr string, n int) ([]*conn, func(), error) {
	var conns []*conn
	closeAll := func() {
		for _, c := range conns {
			c.close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// bodyQueue hands a lane its pre-encoded request bodies in order and, if
// the server outruns what set-up prepared, keeps encoding from the same
// deterministic stream so the sequence never repeats a candidate.
type bodyQueue struct {
	bodies [][]byte
	more   func() []byte
}

func (q *bodyQueue) at(seq int) []byte {
	for seq >= len(q.bodies) {
		q.bodies = append(q.bodies, q.more())
	}
	return q.bodies[seq]
}

func auditOK(body []byte) bool { return len(body) > 0 && body[0] == '{' }

// wrapFunc lets the traced run put a span around every request a lane
// issues; the untraced run passes requests through untouched.
type wrapFunc func(lane int, do doFunc) doFunc

func noWrap(_ int, do doFunc) doFunc { return do }

// traffic is one workload's request generator. prepare runs during set-up;
// drive may be called for several windows in a row and continues each
// lane's sequence where the last call stopped, so a cold stream stays cold.
type traffic interface {
	prepare(cfg runCfg, names, texts []string)
	drive(addr string, plan schedule, host *hostMeter, wrap wrapFunc) (audits, publishes laneStats, err error)
	// verify compares the sampled responses with the offline oracle and
	// returns the number of mismatches.
	verify(res *runResult, env *served) (int, error)
}

// auditTraffic is audit_cold and audit_resample: every lane a closed loop
// of single /v1/audit requests. The two differ in how a lane's sequence is
// generated and which candidate a sampled request carried.
type auditTraffic struct {
	generate func(cfg runCfg, texts []string)
	next     func(lane, seq int) request
	codeOf   func(lane, seq int) string
	cursor   []int    // per lane: requests issued so far
	kept     [][]kept // per lane: sampled responses, seq absolute
}

func (t *auditTraffic) prepare(cfg runCfg, _, texts []string) {
	t.generate(cfg, texts)
	t.cursor = make([]int, lanes())
	t.kept = make([][]kept, lanes())
}

func (t *auditTraffic) drive(addr string, plan schedule, host *hostMeter, wrap wrapFunc) (audits, publishes laneStats, err error) {
	conns, closeAll, err := dialLanes(addr, len(t.cursor))
	if err != nil {
		return audits, publishes, err
	}
	defer closeAll()
	audits.busyS, audits.normBusyS = runSlices(plan, host,
		func(w window) []laneStats {
			fns := make([]func() laneStats, len(conns))
			for lane := range fns {
				base := t.cursor[lane]
				fns[lane] = func() laneStats {
					return closedLoop(wrap(lane, conns[lane].do), w,
						func(seq int) request { return t.next(lane, base+seq) }, auditOK)
				}
			}
			return runLanes(fns...)
		},
		func(lane int, st laneStats, counted bool, speed float64) {
			if counted {
				for _, k := range st.kept {
					t.kept[lane] = append(t.kept[lane], kept{t.cursor[lane] + k.seq, k.body})
				}
				audits.merge(st, speed)
			}
			t.cursor[lane] += st.attempted
		})
	return audits, publishes, nil
}

func (t *auditTraffic) verify(res *runResult, env *served) (int, error) {
	orc := newOracle(env.names, env.texts)
	bad := 0
	for lane, sampled := range t.kept {
		codes := make([]string, len(sampled))
		got := make([]verdict, len(sampled))
		for i, k := range sampled {
			codes[i] = t.codeOf(lane, k.seq)
			var err error
			if got[i], err = parseAudit(k.body); err != nil {
				res.problem(fmt.Sprintf("undecodable audit response: %v", err))
			}
		}
		bad += checkVerdicts(res, orc, codes, got)
	}
	return bad, nil
}

func coldTraffic() *auditTraffic {
	var queues []*bodyQueue
	t := &auditTraffic{}
	t.generate = func(cfg runCfg, texts []string) {
		n := lanes()
		per := int(float64(cfg.size.coldPerSec)*cfg.plan().seconds()) / n
		queues = make([]*bodyQueue, n)
		for lane := range queues {
			s := newColdStream(cfg.seed, lane, texts, cfg.size.nearDupPct)
			q := &bodyQueue{more: func() []byte { return auditBody(s.next()) }}
			q.at(per - 1)
			queues[lane] = q
		}
	}
	t.next = func(lane, seq int) request {
		return request{path: "/v1/audit", body: queues[lane].at(seq), cands: 1}
	}
	t.codeOf = func(lane, seq int) string { return codeOfAuditBody(queues[lane].bodies[seq]) }
	return t
}

func resampleTraffic() *auditTraffic {
	var (
		pool  []string
		body  [][]byte
		draws []*rand.Zipf
		drawn [][]int // every index a lane drew, so a sampled seq maps back to its candidate
	)
	t := &auditTraffic{}
	t.generate = func(cfg runCfg, texts []string) {
		pool = candidatePool(cfg.seed, cfg.size.poolSize, texts, cfg.size.nearDupPct)
		body = make([][]byte, len(pool))
		for i, code := range pool {
			body[i] = auditBody(code)
		}
		n := lanes()
		draws = make([]*rand.Zipf, n)
		drawn = make([][]int, n)
		for lane := range draws {
			draws[lane] = rand.NewZipf(subRand(cfg.seed, streamZipf, lane), cfg.size.zipfS, 1, uint64(len(pool)-1))
		}
	}
	// next is called with consecutive seq per lane, so drawn[lane][seq] is
	// the index request seq carried.
	t.next = func(lane, seq int) request {
		i := int(draws[lane].Uint64())
		drawn[lane] = append(drawn[lane], i)
		return request{path: "/v1/audit", body: body[i], cands: 1}
	}
	t.codeOf = func(lane, seq int) string { return pool[drawn[lane][seq]] }
	return t
}

// runServed is the end-to-end run of the three workloads with a server.
func runServed(cfg runCfg, t traffic) (*runResult, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	host := newHostMeter(cfg.plan())
	env, setupS, err := bringUp(cfg, host, func(names, texts []string) { t.prepare(cfg, names, texts) })
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	res.set("setup_s", setupS, cfg.size.setups)

	audits, publishes, err := t.drive(env.srv.addr, cfg.plan(), host, noWrap)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(env.srv.pid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 0)

	if p, ok := t.(*publishMixed); ok {
		if err := p.finish(res, env, host, publishes); err != nil {
			return nil, err
		}
	}
	mismatches, err := t.verify(res, env)
	if err != nil {
		return nil, err
	}
	audits.attempted += publishes.attempted
	audits.failed += publishes.failed + mismatches
	return finishAudits(res, audits)
}

// finishAudits stores the metrics every workload derives from its audit
// operations: rescaled to the reference host under the end-to-end names,
// as the clock showed them under loadgen.raw_*.
func finishAudits(res *runResult, total laneStats) (*runResult, error) {
	if len(total.latNS) == 0 {
		return nil, errors.New("no audit completed inside the window")
	}
	res.Attempted += total.attempted
	res.Failed += total.failed
	res.set("audits_per_s", float64(total.cands)/total.normBusyS, total.cands)
	norm := msOf(total.normNS)
	p50, _ := percentile(norm, 0.50)
	res.set("audit_p50_ms", p50, len(norm))
	res.setTail("loadgen.audit_p95_ms", norm, 0.95)
	res.setTail("loadgen.audit_p99_ms", norm, 0.99)
	raw, _ := percentile(msOf(total.latNS), 0.50)
	res.set("loadgen.raw_audits_per_s", float64(total.cands)/total.busyS, total.cands)
	res.set("loadgen.raw_audit_p50_ms", raw, len(norm))
	res.set("loadgen.host_speed", total.normBusyS/total.busyS, 0)
	return res, nil
}

// publishMixed is publish_mixed: lane A publishes deltas on a fixed
// schedule, lane B audits batches in a closed loop. It remembers which
// deltas the server acknowledged, so the corpus the server must hold can
// be rebuilt offline.
type publishMixed struct {
	cfg                runCfg
	stream             *deltaStream
	deltas             []delta
	batches            *bodyQueue
	codes              [][]string // candidates of batch i
	acked              []int      // delta numbers acknowledged durable, in order
	lastVer            int64
	errs               []string
	nextPub, nextBatch int    // where the next slice continues
	kept               []kept // sampled batch responses, seq absolute
}

type delta struct {
	docs   []doc
	remove []string
	body   []byte
}

func (p *publishMixed) prepare(cfg runCfg, _, texts []string) {
	*p = publishMixed{cfg: cfg, stream: newDeltaStream(cfg.seed, 0, texts, cfg.size.deltaDocs)}
	p.delta(int(cfg.plan().seconds() * cfg.size.publishRate))
	cs := newColdStream(cfg.seed, 0, texts, cfg.size.nearDupPct)
	p.batches = &bodyQueue{more: func() []byte {
		codes := make([]string, cfg.size.batch)
		for i := range codes {
			codes[i] = cs.next()
		}
		p.codes = append(p.codes, codes)
		return batchBody(codes)
	}}
	p.batches.at(int(float64(cfg.size.coldPerSec)*cfg.plan().seconds())/cfg.size.batch - 1)
}

// delta returns delta publish k, generating the stream up to it.
func (p *publishMixed) delta(k int) *delta {
	for k >= len(p.deltas) {
		docs, remove := p.stream.next()
		p.deltas = append(p.deltas, delta{docs, remove, publishBody("delta", docs, remove)})
	}
	return &p.deltas[k]
}

// ack records a durable acknowledgement of delta k; versions must only go
// up.
func (p *publishMixed) ack(k int, body []byte) bool {
	var a corpusAck
	if json.Unmarshal(body, &a) != nil || !a.Persisted {
		return false
	}
	if a.Version <= p.lastVer {
		p.errs = append(p.errs, fmt.Sprintf("publish %d acknowledged version %d after %d: not monotone", k, a.Version, p.lastVer))
		return false
	}
	p.lastVer = a.Version
	p.acked = append(p.acked, k)
	return true
}

// live replays the acknowledged deltas over the base corpus, in the order
// the server applied them.
func (p *publishMixed) live(names, texts []string) (liveNames, liveTexts []string) {
	liveNames = append([]string(nil), names...)
	liveTexts = append([]string(nil), texts...)
	for _, k := range p.acked {
		d := p.deltas[k]
		gone := map[string]bool{}
		for _, name := range d.remove {
			gone[name] = true
		}
		keepN, keepT := liveNames[:0], liveTexts[:0]
		for i, name := range liveNames {
			if !gone[name] {
				keepN, keepT = append(keepN, name), append(keepT, liveTexts[i])
			}
		}
		liveNames, liveTexts = keepN, keepT
		for _, dc := range d.docs {
			liveNames, liveTexts = append(liveNames, dc.Name), append(liveTexts, dc.Text)
		}
	}
	return liveNames, liveTexts
}

func (p *publishMixed) batchOK(body []byte) bool {
	var r batchResponse
	return json.Unmarshal(body, &r) == nil && len(r.Results) == p.cfg.size.batch
}

func (p *publishMixed) drive(addr string, plan schedule, host *hostMeter, wrap wrapFunc) (audits, publishes laneStats, err error) {
	conns, closeAll, err := dialLanes(addr, 2)
	if err != nil {
		return audits, publishes, err
	}
	defer closeAll()
	interval := time.Duration(float64(time.Second) / p.cfg.size.publishRate)
	audits.busyS, audits.normBusyS = runSlices(plan, host,
		func(w window) []laneStats {
			pubBase, batchBase := p.nextPub, p.nextBatch
			return runLanes(
				func() laneStats {
					return openLoop(wrap(0, conns[0].do), w, interval,
						func(k int) request { return request{path: "/v1/corpus", body: p.delta(pubBase + k).body} },
						func(k int, body []byte) bool { return p.ack(pubBase+k, body) })
				},
				func() laneStats {
					return closedLoop(wrap(1, conns[1].do), w,
						func(seq int) request {
							return request{path: "/v1/audit/batch", body: p.batches.at(batchBase + seq), cands: p.cfg.size.batch}
						}, p.batchOK)
				})
		},
		func(lane int, st laneStats, counted bool, speed float64) {
			if lane == 0 {
				p.nextPub += st.attempted
				if counted {
					publishes.merge(st, speed)
				}
				return
			}
			if counted {
				for _, k := range st.kept {
					p.kept = append(p.kept, kept{p.nextBatch + k.seq, k.body})
				}
				audits.merge(st, speed)
			}
			p.nextBatch += st.attempted
		})
	return audits, publishes, nil
}

// finish stores the publish metrics, then restarts the server on its data
// directory: SIGTERM, relaunch, time to ready. verify then runs against the
// restarted server, which is the durability check.
func (p *publishMixed) finish(res *runResult, env *served, host *hostMeter, pub laneStats) error {
	for _, e := range p.errs {
		res.problem(e)
	}
	if len(pub.latNS) == 0 {
		return errors.New("no publish completed inside the window")
	}
	res.setLatency("publish", msOf(pub.normNS))
	res.setTail("loadgen.publish_late_p95_ms", msOf(pub.lateNS), 0.95)

	var ready []float64
	for i := 0; i < p.cfg.size.restarts; i++ {
		if err := env.srv.stop(); err != nil {
			return err
		}
		env.srv = nil
		var err error
		ready = append(ready, host.timed(func() { env.srv, _, err = startServer(p.cfg.bin, serverArgs(env.dir)...) }))
		if err != nil {
			return err
		}
	}
	res.set("restart_ready_s", median(ready), len(ready))
	return nil
}

// verify audits the sampled batches again on the server as it is now — in
// the end-to-end run, restarted — and compares them with an oracle built
// from the acknowledged publishes: every acknowledged publish is visible,
// nothing else is.
func (p *publishMixed) verify(res *runResult, env *served) (int, error) {
	c, err := dial(env.srv.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	st, err := getStats(c)
	if err != nil {
		return 0, err
	}
	liveNames, liveTexts := p.live(env.names, env.texts)
	bad := 0
	if int64(st.CorpusVersion) != p.lastVer || st.CorpusLen != len(liveNames) {
		bad++
		res.problem(fmt.Sprintf("the server holds version %d with %d documents; acknowledged were version %d with %d",
			st.CorpusVersion, st.CorpusLen, p.lastVer, len(liveNames)))
	}
	orc := newOracle(liveNames, liveTexts)
	for _, k := range p.kept {
		status, body, err := c.do("POST", "/v1/audit/batch", p.batches.bodies[k.seq])
		var r batchResponse
		if err != nil || status != 200 || json.Unmarshal(body, &r) != nil || len(r.Results) != len(p.codes[k.seq]) {
			bad++
			res.problem(fmt.Sprintf("sampled batch %d failed on the checked server: status %d, err %v", k.seq, status, err))
			continue
		}
		got := make([]verdict, len(r.Results))
		for i, w := range r.Results {
			got[i] = w.verdict()
		}
		bad += checkVerdicts(res, orc, p.codes[k.seq], got)
	}
	return bad, nil
}
