package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"freehw/internal/curation"
	"freehw/internal/dedup"
	"freehw/internal/license"
	"freehw/internal/pipeline"
	"freehw/internal/serve"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
	"freehw/internal/vcache"
	"freehw/internal/vlog"
)

// Replay sizes. They are counts, not durations, so the count-type layer
// metrics repeat exactly for equal seeds.
const (
	replayCands   = 1024 // candidates pushed through every audit entry point
	replayFloor   = 2000 // healthz round trips
	replayDeltas  = 16   // delta publishes per publish measurement
	replayEvictN  = 2048 // entries offered to the budgeted verdict cache
	replayEvictOK = 512  // entries its budget holds
)

// replayInputs are the inputs of the replay, generated from the seed on
// lanes no workload uses, so the server has seen none of them.
type replayInputs struct {
	codes   []string // replayCands cold candidates
	nearDup []bool
	bodies  [][]byte   // their /v1/audit requests
	batches [][]string // a second fresh set, grouped for /v1/audit/batch
	deltas  []delta    // delta publishes for the TCP write probe
	local   []delta    // ... and for the in-process handlers, twice replayDeltas
}

func newReplayInputs(cfg runCfg, base []string) *replayInputs {
	in := &replayInputs{}
	cs := newColdStream(cfg.seed, 7, base, cfg.size.nearDupPct)
	for i := 0; i < replayCands; i++ {
		code := cs.next()
		in.codes = append(in.codes, code)
		in.nearDup = append(in.nearDup, cs.nearDup)
		in.bodies = append(in.bodies, auditBody(code))
	}
	cs = newColdStream(cfg.seed, 8, base, cfg.size.nearDupPct)
	for i := 0; i < replayCands/cfg.size.batch; i++ {
		codes := make([]string, cfg.size.batch)
		for j := range codes {
			codes[j] = cs.next()
		}
		in.batches = append(in.batches, codes)
	}
	gen := func(lane, n int) []delta {
		ds := newDeltaStream(cfg.seed, lane, base, cfg.size.deltaDocs)
		out := make([]delta, n)
		for k := range out {
			docs, remove := ds.next()
			out[k] = delta{docs, remove, publishBody("delta", docs, remove)}
		}
		return out
	}
	in.deltas, in.local = gen(7, replayDeltas), gen(8, 2*replayDeltas)
	return in
}

func docBytes(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.Text)
	}
	return n
}

// setFunc reports one measured layer metric.
type setFunc func(name string, v float64, n int)

// section runs fn, which reports what it timed through set, and stores the
// values rescaled by the host's speed sampled just before and just after:
// durations are multiplied by it, rates divided, counts and ratios left
// alone. The replay runs for many seconds and the host changes speed
// meanwhile; without this two sections of one run would not be comparable.
func (r *runResult) section(host *hostMeter, fn func(set setFunc) error) error {
	type got struct {
		name string
		v    float64
		n    int
	}
	var all []got
	before := host.sample()
	err := fn(func(name string, v float64, n int) { all = append(all, got{name, v, n}) })
	speed := (before + host.sample()) / 2
	for _, g := range all {
		d, _ := findMetric(g.name)
		switch d.unit {
		case "s", "ms", "us", "ns":
			g.v *= speed
		case "MB/s":
			g.v /= speed
		}
		r.set(g.name, g.v, g.n)
	}
	return err
}

// medianOf times fn reps times and returns the median in milliseconds.
func medianOf(reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start)) / 1e6
	}
	return median(times)
}

// fixtures are the in-process counterparts of the served corpus: a
// serve.Server without a store and one index segment, built from the same
// documents the child server holds.
type fixtures struct {
	local *serve.Server
	seg   *similarity.Segment
	snap  *similarity.Snapshot
}

func (f *fixtures) close() { f.local.Close() }

func newFixtures(res *runResult, host *hostMeter, env *served) (*fixtures, error) {
	f := &fixtures{local: serve.NewServer(serve.DefaultConfig())}
	err := res.section(host, func(set setFunc) error {
		var err error
		set("serve.publish_full_ms", medianOf(1, func() { _, _, err = f.local.PublishDocuments(env.names, env.texts) }), 1)
		return err
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("in-process publish: %w", err)
	}
	res.section(host, func(set setFunc) error {
		ms := medianOf(1, func() { f.seg = similarity.BuildSegment(env.names, env.texts, 0) })
		set("similarity.build_segment_us_per_doc", ms*1000/float64(len(env.names)), len(env.names))
		return nil
	})
	f.snap = similarity.SnapshotOf([]*similarity.Segment{f.seg}, [][]uint64{nil})
	return f, nil
}

// replayChains pushes every replay candidate through successively narrower
// entry points, back to back, so one candidate's spans were all taken in
// the same state of the host:
//
//	tcp_cold > handler_cold > best_{neardup,novel} > tokenize
//	tcp_hit  > handler_hit  > vcache_lookup
//
// tcp_* go over one warm keep-alive connection to the freshly published
// child server, handler_* call serve.Server.Handler().ServeHTTP in this
// process, the rest are the packages' public functions. A span's parent is
// the span of the next wider entry point for the same candidate. Every
// answer along a chain must be the same verdict.
func replayChains(res *runResult, tr *tracer, host *hostMeter, env *served, fx *fixtures, in *replayInputs) error {
	c, err := dial(env.srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	before := host.sample()
	for i := 0; i < replayFloor; i++ {
		var status int
		tr.timed(0, int64(i), "tcp_floor", func() { status, _, err = c.do("GET", "/v1/healthz", nil) })
		if err != nil || status != 200 {
			return fmt.Errorf("healthz replay: status %d, err %v", status, err)
		}
	}
	h := fx.local.Handler()
	store := vcache.NewStore(curation.FreeSetOptions().Dedup)
	overTCP := func(parent int64, i int, name string) (int64, verdict, error) {
		var status int
		var resp []byte
		id := tr.timed(parent, int64(i), name, func() { status, resp, err = c.do("POST", "/v1/audit", in.bodies[i]) })
		if err != nil || status != 200 {
			return id, verdict{}, fmt.Errorf("%s replay of candidate %d: status %d, err %v", name, i, status, err)
		}
		v, err := parseAudit(resp)
		return id, v, err
	}
	inProcess := func(parent int64, i int, name string) (int64, verdict) {
		req := httptest.NewRequest("POST", "/v1/audit", bytes.NewReader(in.bodies[i]))
		rec := httptest.NewRecorder()
		id := tr.timed(parent, int64(i), name, func() { h.ServeHTTP(rec, req) })
		v, err := parseAudit(rec.Body.Bytes())
		if rec.Code != 200 || err != nil {
			return id, verdict{Name: fmt.Sprintf("status %d: %v", rec.Code, err)}
		}
		return id, v
	}
	for i, code := range in.codes {
		tcp, want, err := overTCP(0, i, "tcp_cold")
		if err != nil {
			return err
		}
		agree := func(who string, got verdict) {
			res.Attempted++
			if got != want {
				res.Failed++
				res.problem(fmt.Sprintf("candidate %d: %s answered %v, the server over TCP %v", i, who, got, want))
			}
		}
		handler, v := inProcess(tcp, i, "handler_cold")
		agree("the in-process handler", v)
		name := "best_novel"
		if in.nearDup[i] {
			name = "best_neardup"
		}
		var m similarity.Match
		best := tr.timed(handler, int64(i), name, func() { m = fx.snap.Best(code) })
		agree("Snapshot.Best", verdictOf(m))
		tr.timed(best, int64(i), "tokenize", func() { tokenSink = similarity.Tokenize(code) })

		// The same candidate again: both servers now answer from the memo.
		store.Entry(code)
		tcp, v, err = overTCP(0, i, "tcp_hit")
		if err != nil {
			return err
		}
		agree("the server's memo", v)
		handler, v = inProcess(tcp, i, "handler_hit")
		agree("the in-process handler's memo", v)
		tr.timed(handler, int64(i), "vcache_lookup", func() { store.Entry(code) })
	}
	tr.speed = (before + host.sample()) / 2
	return nil
}

var tokenSink []string

// replayWrites sends delta publishes to the server one after another and
// reads what the process wrote (wchar of /proc/<pid>/io) per byte of
// published document; then it stops the server and weighs its data
// directory against the documents that are live.
func replayWrites(res *runResult, t traffic, env *served, in *replayInputs) error {
	c, err := dial(env.srv.addr)
	if err != nil {
		return err
	}
	defer c.close()
	w0, err := procWriteChars(env.srv.pid())
	if err != nil {
		return err
	}
	published := 0
	for k, d := range in.deltas {
		status, body, err := c.do("POST", "/v1/corpus", d.body)
		var ack corpusAck
		if err != nil || status != 200 || json.Unmarshal(body, &ack) != nil || !ack.Persisted {
			return fmt.Errorf("write probe publish %d: status %d, err %v", k, status, err)
		}
		published += docBytes(d.docs)
	}
	w1, err := procWriteChars(env.srv.pid())
	if err != nil {
		return err
	}
	res.set("snapstore.bytes_written_per_delta_byte", ratio(w1-w0, float64(published)), len(in.deltas))

	if err := env.srv.stop(); err != nil {
		return err
	}
	env.srv = nil
	onDisk, err := dirBytes(env.dir)
	if err != nil {
		return err
	}
	live := docBytes(in.deltas[len(in.deltas)-1].docs)
	liveTexts := env.texts
	if p, ok := t.(*publishMixed); ok {
		_, liveTexts = p.live(env.names, env.texts)
	}
	for _, text := range liveTexts {
		live += len(text)
	}
	res.set("snapstore.dir_bytes_per_live_byte", ratio(float64(onDisk), float64(live)), 0)
	return nil
}

// serveLocal calls the handler in-process, the entry point just inside the
// TCP one.
func serveLocal(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// publishDeltas posts the deltas to an in-process handler and returns the
// median milliseconds of one.
func publishDeltas(h http.Handler, deltas []delta) (float64, error) {
	var ns []int64
	for k, d := range deltas {
		start := time.Now()
		status, body := serveLocal(h, "/v1/corpus", d.body)
		ns = append(ns, int64(time.Since(start)))
		if status != 200 {
			return 0, fmt.Errorf("in-process delta publish %d: status %d: %.200s", k, status, body)
		}
	}
	return median(msOf(ns)), nil
}

// replayLayers measures, after the server is gone and the processors are
// free, what the chains did not: batches and publishes through the
// handlers, the other entry points of similarity, the verdict cache, the
// snapshot store and the offline funnel's layers.
func replayLayers(res *runResult, host *hostMeter, cfg runCfg, env *served, fx *fixtures, in *replayInputs) error {
	names, texts := env.names, env.texts
	h := fx.local.Handler()

	// serve: batches and delta publishes through the handler, store off.
	err := res.section(host, func(set setFunc) error {
		var batchNS []int64
		for _, codes := range in.batches {
			body := batchBody(codes)
			start := time.Now()
			status, _ := serveLocal(h, "/v1/audit/batch", body)
			batchNS = append(batchNS, int64(time.Since(start)))
			if status != 200 {
				return fmt.Errorf("in-process batch: status %d", status)
			}
		}
		set("serve.handler_batch_us_per_cand", median(msOf(batchNS))*1000/float64(cfg.size.batch), len(batchNS))
		ms, err := publishDeltas(h, in.local[:replayDeltas])
		set("serve.publish_delta_ms", ms, replayDeltas)
		return err
	})
	if err != nil {
		return err
	}

	// serve with the store on: the difference is the cost of persistence.
	dir, rmDir, err := tempDir("replay-")
	if err != nil {
		return err
	}
	defer rmDir()
	store, err := snapstore.Open(dir, 3)
	if err != nil {
		return err
	}
	dcfg := serve.DefaultConfig()
	dcfg.Store = store
	durable := serve.NewServer(dcfg)
	defer durable.Close()
	if _, _, err := durable.PublishDocuments(names, texts); err != nil {
		return fmt.Errorf("in-process durable publish: %w", err)
	}
	err = res.section(host, func(set setFunc) error {
		ms, err := publishDeltas(durable.Handler(), in.local[replayDeltas:])
		set("serve.publish_delta_durable_ms", ms, replayDeltas)
		return err
	})
	if err != nil {
		return err
	}
	durable.Close()

	// similarity: the pruning counters, in a pass of their own so no timing
	// ran with collection on. One goroutine, so the counts repeat exactly.
	similarity.ResetPruneStats()
	similarity.EnablePruneStats(true)
	for _, code := range in.codes {
		fx.snap.Best(code)
	}
	similarity.EnablePruneStats(false)
	ps := similarity.ReadPruneStats()
	res.set("similarity.postings_visited_share", ratio(float64(ps.PostingsVisited), float64(ps.PostingsTotal)), int(ps.Queries))
	res.set("similarity.bailout_share", ratio(float64(ps.Bailouts), float64(ps.Queries)), int(ps.Queries))
	res.set("similarity.full_evals_per_query", ratio(float64(ps.FullEvals), float64(ps.Queries)), int(ps.Queries))

	// similarity: the entry points the chains did not take.
	perCall := func(n int, fn func(code string)) float64 {
		ns := make([]int64, n)
		for i, code := range in.codes[:n] {
			start := time.Now()
			fn(code)
			ns[i] = int64(time.Since(start))
		}
		return median(msOf(ns)) * 1000
	}
	half := len(in.codes) / 2
	eighth := (len(names) + 7) / 8
	var segs []*similarity.Segment
	for lo := 0; lo < len(names); lo += eighth {
		hi := min(lo+eighth, len(names))
		segs = append(segs, similarity.BuildSegment(names[lo:hi], texts[lo:hi], 0))
	}
	snap8 := similarity.SnapshotOf(segs, make([][]uint64, len(segs)))
	res.section(host, func(set setFunc) error {
		set("similarity.best_8seg_us", perCall(half, func(code string) {
			if m := snap8.Best(code); verdictOf(m) != verdictOf(fx.snap.Best(code)) {
				res.Failed++
				res.problem(fmt.Sprintf("8 segments and 1 segment disagree: %v", m))
			}
		}), half)
		return nil
	})
	snap8, segs = nil, nil
	res.section(host, func(set setFunc) error {
		set("similarity.topk10_us", perCall(half, func(code string) { fx.snap.TopK(code, 10) }), half)
		var batchNS []int64
		for _, codes := range in.batches {
			start := time.Now()
			fx.snap.BestBatch(runtime.GOMAXPROCS(0), codes)
			batchNS = append(batchNS, int64(time.Since(start)))
		}
		set("similarity.bestbatch_us_per_cand", median(msOf(batchNS))*1000/float64(cfg.size.batch), len(batchNS))
		return nil
	})
	offline := similarity.NewCorpus(names, texts)
	res.section(host, func(set setFunc) error {
		set("similarity.corpus_best_us", perCall(len(in.codes), func(code string) { offline.Best(code) }), len(in.codes))
		return nil
	})
	offline = nil
	mid := len(names) / 2
	a := similarity.BuildSegment(names[:mid], texts[:mid], 0)
	b := similarity.BuildSegment(names[mid:], texts[mid:], 0)
	var sections [][]byte
	err = res.section(host, func(set setFunc) error {
		set("similarity.merge_segments_ms", medianOf(1, func() {
			similarity.MergeSegments([]*similarity.Segment{a, b}, [][]uint64{nil, nil})
		}), 1)
		set("similarity.encode_ms", medianOf(3, func() { sections = fx.snap.EncodeSections() }), 3)
		var err error
		set("similarity.decode_ms", medianOf(3, func() { _, err = similarity.DecodeSnapshot(sections) }), 3)
		return err
	})
	if err != nil {
		return fmt.Errorf("decode snapshot: %w", err)
	}
	a, b, sections = nil, nil, nil

	// snapstore: a full save, a delta save that shares the big segment's
	// file, and the load a restart performs.
	sdir, rmS, err := tempDir("snapstore-")
	if err != nil {
		return err
	}
	defer rmS()
	st, err := snapstore.Open(sdir, 3)
	if err != nil {
		return err
	}
	sb := similarity.NewSegmentBuilder()
	for _, d := range in.local[0].docs {
		sb.Add(d.Name, d.Text)
	}
	snapDelta := similarity.SnapshotOf([]*similarity.Segment{fx.seg, sb.Seal()}, [][]uint64{nil, nil})
	err = res.section(host, func(set setFunc) error {
		var err error
		save := func(version uint64, snap *similarity.Snapshot) func() {
			return func() {
				if e := st.Save(version, snap); e != nil {
					err = e
				}
			}
		}
		set("snapstore.save_full_ms", medianOf(1, save(1, fx.snap)), 1)
		set("snapstore.save_delta_ms", medianOf(1, save(2, snapDelta)), 1)
		set("snapstore.load_latest_ms", medianOf(3, func() {
			if _, _, _, e := st.LoadLatest(); e != nil {
				err = e
			}
		}), 3)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapstore replay: %w", err)
	}

	replayVcache(res, host, cfg, in)
	return replayFunnel(res, host, cfg)
}

// replayVcache measures the verdict cache: the content hash, a lookup
// that misses and inserts, one that hits, and how a budget a quarter of
// the offered set evicts.
func replayVcache(res *runResult, host *hostMeter, cfg runCfg, in *replayInputs) {
	dopt := curation.FreeSetOptions().Dedup
	store := vcache.NewStore(dopt)
	perOp := func(fn func(code string)) float64 {
		start := time.Now()
		for _, code := range in.codes {
			fn(code)
		}
		return float64(time.Since(start)) / float64(len(in.codes))
	}
	res.section(host, func(set setFunc) error {
		set("vcache.keyof_ns", perOp(func(code string) { keySink = vcache.KeyOf(code) }), len(in.codes))
		set("vcache.entry_miss_ns", perOp(func(code string) { store.Entry(code) }), len(in.codes))
		set("vcache.entry_hit_ns", perOp(func(code string) { store.Entry(code) }), len(in.codes))
		return nil
	})
	stats := store.Stats()
	perEntry := ratio(float64(stats.Bytes), float64(stats.Entries))
	res.set("vcache.bytes_per_entry", perEntry, stats.Entries)

	small := vcache.NewStore(dopt)
	small.SetBudget(int64(perEntry * replayEvictOK))
	cs := newColdStream(cfg.seed, 9, in.codes, 0)
	for i := 0; i < replayEvictN; i++ {
		small.Entry(cs.next())
	}
	res.set("vcache.evictions", float64(small.Stats().Evictions), replayEvictN)
}

var keySink vcache.Key

// replayFunnel measures the offline funnel's layers on the scraped world:
// extraction, each pipeline stage as pipeline.Execute reports it for an
// uncached run, and the scanners and de-duplication structures under them.
func replayFunnel(res *runResult, host *hostMeter, cfg runCfg) error {
	repos, err := scrapeWorld(cfg.seed, cfg.size.worldScale)
	if err != nil {
		return err
	}
	opt := curation.FreeSetOptions()
	var ex *curation.Extraction
	res.section(host, func(set setFunc) error {
		set("curation.extract_ms", medianOf(3, func() { ex = curation.ExtractWithCache(repos, opt.Dedup, 0, nil) }), 3)
		return nil
	})
	files := ex.Files()
	cands := make([]*pipeline.Candidate, len(files))
	var srcs, keys []string
	total := 0
	for i, f := range files {
		rec := f.Record()
		cands[i] = &pipeline.Candidate{Key: rec.Key(), Content: rec.Content, Licensed: f.Licensed()}
		srcs, keys = append(srcs, rec.Content), append(keys, rec.Key())
		total += len(rec.Content)
	}
	err = res.section(host, func(set setFunc) error {
		rep := pipeline.Execute(0, pipeline.Paper(opt.Dedup, 0), cands)
		for stage, metric := range map[string]string{
			pipeline.StageLicense:   "pipeline.license_ms",
			pipeline.StageDedup:     "pipeline.dedup_ms",
			pipeline.StageCopyright: "pipeline.copyright_ms",
			pipeline.StageSyntax:    "pipeline.syntax_ms",
		} {
			t, ok := rep.Timing(stage)
			if !ok {
				return fmt.Errorf("pipeline.Execute reported no %s stage", stage)
			}
			set(metric, float64(t.Duration)/1e6, t.In)
		}
		return nil
	})
	if err != nil {
		return err
	}

	mbPerS := func(bytes int, fn func()) float64 {
		start := time.Now()
		fn()
		return float64(bytes) / 1e6 / time.Since(start).Seconds()
	}
	res.section(host, func(set setFunc) error {
		definitive := 0
		set("vlog.quickcheck_mb_per_s", mbPerS(total, func() {
			for _, src := range srcs {
				if vlog.QuickCheck(src) {
					definitive++
				}
			}
		}), len(srcs))
		set("vlog.quickcheck_definitive_share", ratio(float64(definitive), float64(len(srcs))), len(srcs))
		// The full parser is an order of magnitude slower; a quarter of the
		// files is enough to time it.
		quarter, quarterBytes := srcs[:len(srcs)/4], 0
		for _, src := range quarter {
			quarterBytes += len(src)
		}
		set("vlog.check_mb_per_s", mbPerS(quarterBytes, func() {
			for _, src := range quarter {
				vlog.Check(src)
			}
		}), len(quarter))
		return nil
	})
	res.section(host, func(set setFunc) error {
		headers := make([]string, len(srcs))
		headerBytes := 0
		for i, src := range srcs {
			headers[i] = vlog.HeaderComment(src)
			headerBytes += len(headers[i])
		}
		set("license.scan_header_mb_per_s", mbPerS(headerBytes, func() {
			for _, hdr := range headers {
				license.ScanHeader(hdr)
			}
		}), len(headers))
		set("license.scan_body_mb_per_s", mbPerS(total, func() {
			for _, src := range srcs {
				license.ScanBody(src)
			}
		}), len(srcs))
		return nil
	})

	res.section(host, func(set setFunc) error {
		prep := dedup.NewPreparer(opt.Dedup)
		preps := make([]dedup.Prepared, len(srcs))
		perFile := func(fn func()) float64 {
			start := time.Now()
			fn()
			return float64(time.Since(start)) / 1e3 / float64(len(srcs))
		}
		set("dedup.prepare_us_per_file", perFile(func() {
			for i, src := range srcs {
				preps[i] = prep.Prepare(src)
			}
		}), len(srcs))
		idx := dedup.NewIndex(opt.Dedup)
		dups := 0
		set("dedup.add_prepared_us_per_file", perFile(func() {
			for i := range preps {
				if !idx.AddPrepared(keys[i], preps[i]).Unique {
					dups++
				}
			}
		}), len(srcs))
		set("dedup.dup_share", ratio(float64(dups), float64(len(srcs))), len(srcs))
		sharded := dedup.NewShardedIndex(opt.Dedup, 0, 0)
		shardedDups := 0
		set("dedup.sharded_addall_us_per_file", perFile(func() {
			for _, r := range sharded.AddAll(keys, preps) {
				if !r.Unique {
					shardedDups++
				}
			}
		}), len(srcs))
		if shardedDups != dups {
			res.Failed++
			res.problem(fmt.Sprintf("dedup.ShardedIndex found %d duplicates, dedup.Index %d", shardedDups, dups))
		}
		return nil
	})
	return nil
}

// layerMetricsFromSpans turns the replay's span chains into the layer
// metrics that are durations or self times: medians in microseconds,
// rescaled by the host's speed while the chains ran.
func layerMetricsFromSpans(res *runResult, tr *tracer) {
	self := selfNS(tr.spans)
	dur := byName(tr.spans, span.dur)
	own := byName(tr.spans, func(s span) int64 { return self[s.ID] })
	set := func(metric string, samples []float64) {
		res.set(metric, median(samples)*tr.speed, len(samples))
	}
	set("serve.tcp_floor_us", dur["tcp_floor"])
	set("serve.tcp_cold_us", dur["tcp_cold"])
	set("serve.tcp_hit_us", dur["tcp_hit"])
	set("serve.handler_cold_us", dur["handler_cold"])
	set("serve.handler_hit_us", dur["handler_hit"])
	set("serve.transport_cold_us", own["tcp_cold"])
	set("serve.transport_hit_us", own["tcp_hit"])
	set("serve.self_cold_us", own["handler_cold"])
	set("serve.self_hit_us", own["handler_hit"])
	set("similarity.best_neardup_us", dur["best_neardup"])
	set("similarity.best_novel_us", dur["best_novel"])
	set("similarity.best_self_us", append(append([]float64(nil), own["best_neardup"]...), own["best_novel"]...))
	set("similarity.tokenize_us", dur["tokenize"])
	set("vcache.lookup_us", dur["vcache_lookup"])

	// Does the chain account for the request? Sum of the layers' median
	// self times over the median of the whole.
	m := func(name string) float64 { return res.Metrics[name].Value }
	res.set("serve.accounted_cold_share", ratio(m("serve.transport_cold_us")+m("serve.self_cold_us")+
		m("similarity.best_self_us")+m("similarity.tokenize_us"), m("serve.tcp_cold_us")), len(dur["tcp_cold"]))
	res.set("serve.accounted_hit_share", ratio(m("serve.transport_hit_us")+m("serve.self_hit_us")+
		m("vcache.lookup_us"), m("serve.tcp_hit_us")), len(dur["tcp_hit"]))
}
