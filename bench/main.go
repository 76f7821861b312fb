// Command bench is the repository's benchmark: four workloads over a real
// freeset-serve child process and the offline curation funnel, end-to-end
// metrics with bounds, and per-layer metrics by replay. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the root
// is the machine-readable summary.
//
//	go run ./bench -seed 1                  all four workloads
//	go run ./bench -workload audit_cold     one workload
//	go run ./bench -workload audit_cold -trace 1   its per-layer metrics
//	go run ./bench -smoke                   1 s windows, small inputs, all checks
//	go run ./bench -compare A.json B.json   regressed / within-bound / unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main with an exit code, so deferred cleanups happen before the
// process exits and a panic still stops children and removes directories.
func run(args []string) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "timed window per workload (default 16, 1 with -smoke)")
		trace    = fs.Int("trace", 0, "1: the traced run that produces the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "1 s windows and small inputs, every output check on")
		count    = fs.Int("count", 1, "runs of each selected workload")
		out      = fs.String("out", "", "result file (default "+outDir+"/result-seed<seed>.json)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
		child    = fs.Bool("curate-child", false, "internal: run curate_offline in this process")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	defer func() {
		if p := recover(); p != nil {
			runCleanups()
			panic(p)
		}
		runCleanups()
	}()
	cleanupOnSignal()

	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, size: fullSizing()}
	if cfg.smoke {
		cfg.size = smokeSizing()
	}
	if cfg.seconds <= 0 {
		cfg.seconds = 16
		if cfg.smoke {
			cfg.seconds = 1
		}
	}
	pinToOneCPU()
	if *child {
		cfg.workload = wlCurateOffline
		if err := curateChild(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	selected := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are %s\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		selected = []string{*workload}
	}
	var err error
	if cfg.bin, err = buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	file := resultFile{Env: startEnv(cfg)}
	for i := 0; i < *count; i++ {
		for _, name := range selected {
			cfg.workload = name
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printRun(os.Stdout, res)
			file.Runs = append(file.Runs, res)
			code = max(code, exitCode(res))
		}
	}
	file.Env.finish()
	if file.Env.Noisy {
		fmt.Printf("noisy: load average %.2f at start exceeds %d processors; -compare will not call this file within-bound\n",
			file.Env.LoadavgStart, file.Env.NProc)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", cfg.seed))
	}
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("result file:", path)
	if len(file.Runs) == 1 {
		fmt.Println(contractLine(file.Runs[0]))
	}
	return code
}

// exitCode is non-zero for a run with a failed operation or an output
// mismatch.
func exitCode(r *runResult) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(cfg runCfg) (*runResult, error) {
	if cfg.trace {
		return runTrace(cfg)
	}
	if cfg.workload == wlCurateOffline {
		return runCurateOffline(cfg)
	}
	return runServed(cfg, trafficFor(cfg.workload))
}

// trafficFor returns the generator of a served workload. The traced run of
// curate_offline replays its candidates, which are audit_cold's, through a
// server too, so every layer is measured on every workload.
func trafficFor(workload string) traffic {
	switch workload {
	case wlAuditResample:
		return resampleTraffic()
	case wlPublishMixed:
		return &publishMixed{}
	default:
		return coldTraffic()
	}
}

// resultFile is what a bench invocation writes and -compare reads.
type resultFile struct {
	Env  envRecord    `json:"env"`
	Runs []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one-line JSON object the driver reads: exactly the
// metrics BENCHMARK.json lists for the run's kind, each as measured.
func contractLine(r *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := universal(endToEnd)
	if r.Trace {
		defs = universal(perLayer)
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			panic("bench: run of " + r.Workload + " did not produce " + d.name)
		}
		metrics[d.name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct && r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// printRun prints every metric of a run by name with unit, sample count
// and bound.
func printRun(w io.Writer, r *runResult) {
	kind := "end to end"
	if r.Trace {
		kind = "per layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  window %gs  %s ==\n", r.Workload, r.Seed, r.Seconds, kind)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	order := map[string]int{}
	for i, d := range endToEnd {
		order[d.name] = i
	}
	for i, d := range perLayer {
		order[d.name] = len(endToEnd) + i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, name := range names {
		v := r.Metrics[name]
		d, _ := findMetric(name)
		line := fmt.Sprintf("  %-38s %14.4f %-13s", name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%-8d", v.N)
		} else {
			line += fmt.Sprintf(" %-10s", "")
		}
		if d.bound > 0 {
			line += fmt.Sprintf(" bound %.2f", d.bound)
		}
		if slices.Contains(r.Skipped, name) {
			line += fmt.Sprintf("  (fewer than %d samples beyond it: not a percentile)", minBeyond)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-38s %14.6f %-13s failed %d of %d attempted, bound +0.001 absolute\n", "fail_share", share, "ratio", r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  OUTPUT CHECK FAILED:", p)
	}
}
