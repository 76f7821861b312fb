package main

import "slices"

// The four workloads, in the order a full run executes them.
const (
	wlAuditCold     = "audit_cold"
	wlAuditResample = "audit_resample"
	wlPublishMixed  = "publish_mixed"
	wlCurateOffline = "curate_offline"
)

var workloadNames = []string{wlAuditCold, wlAuditResample, wlPublishMixed, wlCurateOffline}

// metricDef describes one named metric. The end-to-end definitions here
// and the lists in BENCHMARK.json are checked against each other by
// TestBenchmarkJSONMatchesTables.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true when a higher value is better
	bound  float64 // relative worsening that counts as a regression; 0 for layer metrics
	// only lists the workloads that produce the metric; empty means all.
	// Metrics every workload produces are the ones BENCHMARK.json can
	// carry, because its contract wants each workload to print each one.
	only []string
}

func (d metricDef) appliesTo(workload string) bool {
	return len(d.only) == 0 || slices.Contains(d.only, workload)
}

// endToEnd are the numbers a user of the system sees. The first four are
// produced by every workload and are BENCHMARK.json's end_to_end list; the
// rest exist on one workload only, are printed and compared by this
// program (-compare) with the same rules, and cannot be listed there. Every
// bound is 0.25, the most the driver's contract allows: README.md measured
// spreads of 4-14 % between identical runs on this host.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "audits_per_s", unit: "candidates/s", higher: true, bound: 0.25},
	{name: "audit_p50_ms", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.25},
	{name: "publish_p50_ms", unit: "ms", bound: 0.25, only: []string{wlPublishMixed}},
	{name: "publish_p95_ms", unit: "ms", bound: 0.25, only: []string{wlPublishMixed}},
	{name: "restart_ready_s", unit: "s", bound: 0.25, only: []string{wlPublishMixed}},
	{name: "curate_cold_files_per_s", unit: "files/s", higher: true, bound: 0.25, only: []string{wlCurateOffline}},
	{name: "curate_warm_files_per_s", unit: "files/s", higher: true, bound: 0.25, only: []string{wlCurateOffline}},
}

// perLayer are the -trace metrics, named <package>.<metric>. Every traced
// run produces every one of them, whatever the workload: the replay part
// pushes the workload's own inputs through each layer's public entry
// point, and the window part reads the server while the workload's
// traffic runs.
var perLayer = []metricDef{
	// loadgen: is the generator itself a valid instrument?
	{name: "loadgen.audit_p95_ms", unit: "ms"},
	{name: "loadgen.audit_p99_ms", unit: "ms"},
	{name: "loadgen.raw_audits_per_s", unit: "candidates/s", higher: true},
	{name: "loadgen.raw_audit_p50_ms", unit: "ms"},
	{name: "loadgen.host_speed", unit: "ratio", higher: true},
	{name: "loadgen.cpu_share", unit: "ratio"},
	{name: "loadgen.calib_ms", unit: "ms"},
	{name: "loadgen.trace_overhead_share", unit: "ratio"},
	{name: "loadgen.publish_late_p95_ms", unit: "ms", only: []string{wlPublishMixed}},
	// serve, read from the running server during the traced window
	{name: "serve.cache_hit_share", unit: "ratio", higher: true},
	{name: "serve.batch_size_mean", unit: "count", higher: true},
	{name: "serve.rejected", unit: "count"},
	{name: "serve.queue_depth_max", unit: "count"},
	{name: "serve.segments_mean", unit: "count"},
	{name: "serve.segments_max", unit: "count"},
	{name: "serve.cpu_ms_per_1k_audits", unit: "ms"},
	// serve, by replay
	{name: "serve.tcp_floor_us", unit: "us"},
	{name: "serve.tcp_cold_us", unit: "us"},
	{name: "serve.tcp_hit_us", unit: "us"},
	{name: "serve.handler_cold_us", unit: "us"},
	{name: "serve.handler_hit_us", unit: "us"},
	{name: "serve.handler_batch_us_per_cand", unit: "us"},
	{name: "serve.transport_cold_us", unit: "us"},
	{name: "serve.transport_hit_us", unit: "us"},
	{name: "serve.self_cold_us", unit: "us"},
	{name: "serve.self_hit_us", unit: "us"},
	{name: "serve.accounted_cold_share", unit: "ratio"},
	{name: "serve.accounted_hit_share", unit: "ratio"},
	{name: "serve.publish_full_ms", unit: "ms"},
	{name: "serve.publish_delta_ms", unit: "ms"},
	{name: "serve.publish_delta_durable_ms", unit: "ms"},
	// similarity
	{name: "similarity.tokenize_us", unit: "us"},
	{name: "similarity.best_self_us", unit: "us"},
	{name: "similarity.best_neardup_us", unit: "us"},
	{name: "similarity.best_novel_us", unit: "us"},
	{name: "similarity.best_8seg_us", unit: "us"},
	{name: "similarity.topk10_us", unit: "us"},
	{name: "similarity.bestbatch_us_per_cand", unit: "us"},
	{name: "similarity.corpus_best_us", unit: "us"},
	{name: "similarity.postings_visited_share", unit: "ratio"},
	{name: "similarity.bailout_share", unit: "ratio"},
	{name: "similarity.full_evals_per_query", unit: "count"},
	{name: "similarity.build_segment_us_per_doc", unit: "us"},
	{name: "similarity.merge_segments_ms", unit: "ms"},
	{name: "similarity.encode_ms", unit: "ms"},
	{name: "similarity.decode_ms", unit: "ms"},
	// vcache
	{name: "vcache.keyof_ns", unit: "ns"},
	{name: "vcache.entry_hit_ns", unit: "ns"},
	{name: "vcache.entry_miss_ns", unit: "ns"},
	{name: "vcache.lookup_us", unit: "us"},
	{name: "vcache.evictions", unit: "count"},
	{name: "vcache.bytes_per_entry", unit: "bytes"},
	// snapstore
	{name: "snapstore.save_full_ms", unit: "ms"},
	{name: "snapstore.save_delta_ms", unit: "ms"},
	{name: "snapstore.load_latest_ms", unit: "ms"},
	{name: "snapstore.bytes_written_per_delta_byte", unit: "ratio"},
	{name: "snapstore.dir_bytes_per_live_byte", unit: "ratio"},
	// the offline funnel
	{name: "pipeline.license_ms", unit: "ms"},
	{name: "pipeline.dedup_ms", unit: "ms"},
	{name: "pipeline.copyright_ms", unit: "ms"},
	{name: "pipeline.syntax_ms", unit: "ms"},
	{name: "curation.extract_ms", unit: "ms"},
	{name: "vlog.quickcheck_mb_per_s", unit: "MB/s", higher: true},
	{name: "vlog.check_mb_per_s", unit: "MB/s", higher: true},
	{name: "vlog.quickcheck_definitive_share", unit: "ratio", higher: true},
	{name: "license.scan_header_mb_per_s", unit: "MB/s", higher: true},
	{name: "license.scan_body_mb_per_s", unit: "MB/s", higher: true},
	{name: "dedup.prepare_us_per_file", unit: "us"},
	{name: "dedup.add_prepared_us_per_file", unit: "us"},
	{name: "dedup.sharded_addall_us_per_file", unit: "us"},
	{name: "dedup.dup_share", unit: "ratio"},
}

// universal returns the metrics of defs that every workload produces: the
// ones BENCHMARK.json lists.
func universal(defs []metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if len(d.only) == 0 {
			out = append(out, d)
		}
	}
	return out
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one measured metric as it is stored in a result file.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a timing
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"` // output-check mismatches, first few
	Metrics   map[string]value `json:"metrics"`
	// Skipped names percentiles the run had too few samples to report.
	Skipped []string `json:"skipped,omitempty"`
}

func (r *runResult) set(name string, v float64, n int) {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: metric " + name + " is not in the tables of metrics.go")
	}
	r.Metrics[name] = value{Value: v, Unit: d.unit, N: n}
}

// problem records an output-check mismatch; any problem makes the run
// incorrect and the process exit non-zero.
func (r *runResult) problem(msg string) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, msg)
	}
}

func newResult(workload string, seed int64, seconds float64, trace bool) *runResult {
	return &runResult{Workload: workload, Trace: trace, Seed: seed, Seconds: seconds,
		Correct: true, Metrics: map[string]value{}}
}

// setTail stores the q-quantile of sorted samples under name. The contract
// with the driver wants every listed metric on every run, so a percentile
// the sample cannot support is still stored, and named in Skipped so the
// report flags it.
func (r *runResult) setTail(name string, sorted []float64, q float64) {
	v, ok := percentile(sorted, q)
	r.set(name, v, len(sorted))
	if !ok {
		r.Skipped = append(r.Skipped, name)
	}
}

// setLatency stores the median and 95th percentile of sorted millisecond
// samples under prefix+"_p50_ms" and prefix+"_p95_ms".
func (r *runResult) setLatency(prefix string, sortedMS []float64) {
	r.setTail(prefix+"_p50_ms", sortedMS, 0.50)
	r.setTail(prefix+"_p95_ms", sortedMS, 0.95)
}
