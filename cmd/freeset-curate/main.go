// Command freeset-curate runs the FreeSet curation funnel end to end
// against the simulated GitHub: scrape (with date-window granularization
// and rate-limit handling), license gate, MinHash/LSH dedup, per-file
// copyright screen, and syntax check. It prints the §IV-A funnel and can
// write the resulting dataset to a directory.
//
// Usage:
//
//	freeset-curate [-scale 0.5] [-seed 1] [-out dir] [-rate 0]
//	               [-no-cache] [-cache-budget 0] [-repeat 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"freehw/internal/core"
	"freehw/internal/curation"
	"freehw/internal/vcache"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "freeset-curate:", err)
		}
		os.Exit(1)
	}
}

// run is main with its arguments and streams passed in: the report goes to
// stdout, progress and flag errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "freeset-curate: ", 0)
	fs := flag.NewFlagSet("freeset-curate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.Float64("scale", 0.5, "world scale (1.0 = 1:100 of the paper's snapshot)")
		seed    = fs.Int64("seed", 1, "world seed")
		out     = fs.String("out", "", "directory to write the curated dataset into")
		rate    = fs.Int("rate", 0, "simulated API rate limit (requests per 50ms; 0 = off)")
		noCache = fs.Bool("no-cache", false, "disable the content-hash verdict cache")
		budget  = fs.Int64("cache-budget", 0, "verdict cache budget in measured bytes (segmented-LRU eviction; 0 = unbounded)")
		repeat  = fs.Int("repeat", 1, "re-run the FreeSet funnel n times (warm-cache timing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// core.New applies the budget to the shared verdict store, which the
	// re-runs below read through as well.
	cfg := core.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.GitRateLimit = *rate
	cfg.NoCache = *noCache
	cfg.CacheBudget = *budget
	e, err := core.New(cfg)
	if err != nil {
		return err
	}
	logger.Printf("scraped %d repos with %d API requests (%d window splits, %d rate waits)",
		e.ScrapeStats.Repos, e.ScrapeStats.Requests, e.ScrapeStats.WindowSplits, e.ScrapeStats.RateWaits)

	opt := curation.FreeSetOptions()
	opt.NoCache = *noCache
	for r := 1; r < *repeat; r++ {
		start := time.Now()
		res := curation.Run(e.Repos, opt)
		logger.Printf("funnel re-run %d: %d files in %v", r, res.FinalFiles, time.Since(start))
	}
	if !*noCache {
		st := vcache.Shared(opt.Dedup).Stats()
		logger.Printf("verdict cache: %d entries (~%d KB), %d hits, %d misses, %d evictions",
			st.Entries, st.Bytes>>10, st.Hits, st.Misses, st.Evictions)
	}

	fmt.Fprintln(stdout, "===== Funnel =====")
	fmt.Fprint(stdout, e.FreeSet.FunnelReport(*scale))
	fmt.Fprintln(stdout, "\n===== Table I =====")
	rows := append(curation.PriorWorkRows(), curation.PaperFreeSetRow(), e.FreeSet.FreeSetRow("FreeSet (measured)"))
	fmt.Fprint(stdout, curation.RenderTableI(rows))

	if len(e.FreeSet.CopyrightFindings) > 0 {
		fmt.Fprintln(stdout, "\n===== Copyright findings (sample) =====")
		for i, cf := range e.FreeSet.CopyrightFindings {
			if i >= 10 {
				fmt.Fprintf(stdout, "  ... and %d more\n", len(e.FreeSet.CopyrightFindings)-10)
				break
			}
			fmt.Fprintf(stdout, "  %s: %s %v\n", cf.Key, cf.Company, cf.Reasons)
			for _, h := range cf.SensitiveHits {
				fmt.Fprintf(stdout, "    sensitive content: %s\n", h)
			}
		}
	}

	if *out != "" {
		if err := writeDataset(*out, e.FreeSet); err != nil {
			return err
		}
		logger.Printf("wrote %d files (%d bytes) to %s", e.FreeSet.FinalFiles, e.FreeSet.Bytes, *out)
	}
	return nil
}

func writeDataset(dir string, res *curation.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, f := range res.Files {
		name := fmt.Sprintf("%05d_%s.v", i, sanitize(f.Repo))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(f.Content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
