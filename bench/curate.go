package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"freehw/internal/curation"
	"freehw/internal/gitsim"
	"freehw/internal/similarity"
	"freehw/internal/vcache"
)

// Phase shares of curate_offline's window: cold funnel, warm funnel,
// offline audit.
const (
	shareCold  = 0.4
	shareWarm  = 0.2
	shareAudit = 0.4
)

// runCurateOffline runs the workload in a re-exec'd child of this binary,
// so peak_rss_mb is the offline pipeline's own and not the generator's or
// another workload's.
func runCurateOffline(cfg runCfg) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-curate-child", "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", traceArg(cfg.trace)}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := startPinned(cmd); err != nil {
		return nil, err
	}
	done := onExit(func() { cmd.Process.Kill(); cmd.Wait() })
	err = cmd.Wait()
	done()
	if err != nil {
		return nil, fmt.Errorf("curate_offline child: %w", err)
	}
	res := &runResult{}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), res); err != nil {
		return nil, fmt.Errorf("curate_offline child printed no result: %w", err)
	}
	return res, nil
}

func traceArg(on bool) string {
	if on {
		return "1"
	}
	return "0"
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// curateChild is the child side: it prints one runResult as JSON.
func curateChild(cfg runCfg) error {
	res, err := curateOffline(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// funnelPrint identifies a funnel outcome: the stage counts and the kept
// keys. Every iteration of both funnel phases must produce the same one.
func funnelPrint(r *curation.Result) string {
	h := sha256.Sum256([]byte(strings.Join(r.Keys(), "\n")))
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d/%x", r.ReposSeen, r.ReposLicensed, r.TotalFiles,
		r.AfterLicense, r.AfterDedup, r.CopyrightRemoved, r.SyntaxRemoved, r.FinalFiles, h[:8])
}

// funnelPhase loops run until the phase's time is used and returns files
// screened per second of the reference host: the host's speed is sampled
// between iterations and each iteration rescaled by the samples around it.
// A funnel outcome that differs from want is an output mismatch.
func funnelPhase(res *runResult, name string, d time.Duration, want string, host *hostMeter, run func() *curation.Result) (rate float64, iters, mismatches int) {
	phase := time.Now()
	files, norm := 0, 0.0
	before := host.sample()
	for time.Since(phase) < d || iters == 0 {
		start := time.Now()
		r := run()
		took := time.Since(start).Seconds()
		after := host.sample()
		norm += took * (before + after) / 2
		before = after
		iters++
		files += r.TotalFiles
		if got := funnelPrint(r); got != want {
			mismatches++
			res.problem(fmt.Sprintf("%s funnel iteration %d produced %s, first run produced %s", name, iters, got, want))
		}
	}
	return float64(files) / norm, iters, mismatches
}

func curateOffline(cfg runCfg) (*runResult, error) {
	res := newResult(cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	plan := cfg.plan()
	host := newHostMeter(plan)

	// Set-up: the scraped world, the protected corpus and the candidates.
	var (
		repos        []gitsim.RepoData
		names, texts []string
		cands        *bodyQueue
		setupTimes   []float64
		err          error
	)
	auditFor := time.Duration(shareAudit * float64(cfg.window()))
	for i := 0; i < cfg.size.setups; i++ {
		setupTimes = append(setupTimes, host.timed(func() {
			if repos, err = scrapeWorld(cfg.seed, cfg.size.worldScale); err != nil {
				return
			}
			names, texts = baseCorpus(cfg.seed, cfg.size.baseDocs)
			cs := newColdStream(cfg.seed, 0, texts, cfg.size.nearDupPct)
			cands = &bodyQueue{more: func() []byte { return []byte(cs.next()) }}
			cands.at(int(float64(cfg.size.coldPerSec)*auditFor.Seconds()) - 1)
		}))
		if err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setupTimes), len(setupTimes))

	// Phase A: the funnel with no cache, every analysis recomputed.
	cold := curation.FreeSetOptions()
	cold.NoCache = true
	want := funnelPrint(curation.Run(repos, cold))
	rate, itersA, badA := funnelPhase(res, "cold", time.Duration(shareCold*float64(cfg.window())), want, host,
		func() *curation.Result { return curation.Run(repos, cold) })
	res.set("curate_cold_files_per_s", rate, itersA)

	// Phase B: the funnel on the process-wide verdict cache, filled by one
	// untimed pass.
	vcache.ResetShared()
	if got := funnelPrint(curation.RunFreeSet(repos)); got != want {
		badA++
		res.problem(fmt.Sprintf("cached funnel produced %s, uncached produced %s", got, want))
	}
	rate, itersB, badB := funnelPhase(res, "warm", time.Duration(shareWarm*float64(cfg.window())), want, host,
		func() *curation.Result { return curation.RunFreeSet(repos) })
	res.set("curate_warm_files_per_s", rate, itersB)
	vcache.ResetShared()

	// Phase C: the offline §III-A audit, similarity.Corpus.Best, over the
	// same candidate stream audit_cold sends to the server, in slices with
	// the host's speed sampled between them like the served workloads.
	corpus := similarity.NewCorpus(names, texts)
	var total laneStats
	var matches []similarity.Match
	phasePlan := schedule{counted: max(1, int(auditFor/plan.slice)), slice: plan.slice}
	total.busyS, total.normBusyS = runSlices(phasePlan, host,
		func(w window) []laneStats {
			var st laneStats
			for time.Now().Before(w.close) {
				code := string(cands.at(len(matches)))
				t0 := time.Now()
				m := corpus.Best(code)
				st.lastEnd = time.Now()
				st.latNS = append(st.latNS, int64(st.lastEnd.Sub(t0)))
				matches = append(matches, m)
			}
			st.cands, st.attempted = len(st.latNS), len(st.latNS)
			return []laneStats{st}
		},
		func(_ int, st laneStats, _ bool, speed float64) { total.merge(st, speed) })
	if len(matches) == 0 {
		return nil, errors.New("no offline audit completed inside its phase")
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 0)

	// Output checks, after the memory reading so the second index does not
	// count: the first verdicts must repeat exactly when asked again, and
	// the serving entry point, Snapshot.Best, must agree bit for bit with
	// the offline one on every sampled candidate.
	badC := 0
	for seq, was := range matches[:min(len(matches), 256)] {
		if now := corpus.Best(string(cands.at(seq))); now != was {
			badC++
			res.problem(fmt.Sprintf("candidate %d: Corpus.Best gave %v, then %v", seq, was, now))
		}
	}
	snap := similarity.SealCorpus(names, texts, 0)
	for seq := 0; seq < len(matches); seq += keepEvery {
		if got, want := verdictOf(snap.Best(string(cands.at(seq)))), verdictOf(matches[seq]); got != want {
			badC++
			res.problem(fmt.Sprintf("candidate %d: Snapshot.Best says %v, Corpus.Best says %v", seq, got, want))
		}
	}
	total.attempted += itersA + itersB + 1
	total.failed = badA + badB + badC
	return finishAudits(res, total)
}
