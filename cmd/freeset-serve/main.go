// Command freeset-serve runs the audit-as-a-service layer: the paper's
// §III-A infringement check (plus the full curation stage pipeline)
// exposed over a versioned HTTP surface, the way an online Verilog
// generation pipeline consumes it.
//
// Endpoints: POST /v1/audit, /v1/audit/batch, /v1/filter, /v1/syntax,
// /v1/scan, /v1/corpus (JSON or streaming NDJSON; ?version=N rolls back),
// GET /v1/stats, /v1/healthz, /v1/readyz (see internal/serve and the
// README's /v1 API reference and Operations section).
//
// Usage:
//
//	freeset-serve [-addr :8844] [-corpus dir] [-protected 200] [-seed 1]
//	              [-workers 0] [-queue 256]
//	              [-threshold 0.8] [-cache-budget 0]
//	              [-data-dir dir] [-retain 3] [-shutdown-grace 15s]
//	              [-merge-max-segs 8] [-merge-dead-frac 0.5]
//
// With -data-dir the served corpus is durable: every publish is saved
// crash-safely before it serves, and a restart replays the newest good
// version (warm restart). The served index otherwise starts from -corpus
// (a directory of .v/.vh files indexed verbatim) and/or -protected (n
// simulated protected files, deterministic in -seed); POST /v1/corpus
// replaces it at runtime. SIGINT/SIGTERM drains gracefully: readiness
// flips to 503, in-flight audits complete, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/serve"
	"freehw/internal/snapstore"
)

func main() {
	log.SetFlags(0) // internal/serve logs through the standard logger
	log.SetPrefix("freeset-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal during drain kills immediately via default handling
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "freeset-serve:", err)
		}
		os.Exit(1)
	}
}

// run is main with its arguments and log stream passed in: it serves until ctx
// is cancelled, drains, and returns. It logs the address it bound (-addr :0).
func run(ctx context.Context, args []string, stderr io.Writer) error {
	logger := log.New(stderr, "freeset-serve: ", 0)
	fs := flag.NewFlagSet("freeset-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8844", "listen address")
		dir       = fs.String("corpus", "", "directory of .v/.vh files to serve as the initial protected corpus")
		protected = fs.Int("protected", 0, "generate n simulated protected files into the initial corpus")
		seed      = fs.Int64("seed", 1, "seed for -protected generation")
		workers   = fs.Int("workers", 0, "scoring concurrency per bulk request (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 256, "audits scored at once before 429 backpressure")
		threshold = fs.Float64("threshold", 0, "violation cosine threshold (0 = paper's 0.8)")
		budget    = fs.Int64("cache-budget", 0, "verdict cache budget in measured bytes (0 = default 256 MiB, negative = unbounded)")
		dataDir   = fs.String("data-dir", "", "directory for durable corpus snapshots (empty = in-memory only)")
		retain    = fs.Int("retain", 3, "snapshot versions kept on disk for rollback (<= 0 keeps all)")
		grace     = fs.Duration("shutdown-grace", 15*time.Second, "graceful-shutdown drain budget after SIGINT/SIGTERM")
		mergeMax  = fs.Int("merge-max-segs", 0, "background merger's target segment count (0 = default 8)")
		mergeDead = fs.Float64("merge-dead-frac", 0, "tombstoned fraction that triggers segment compaction (0 = default 0.5)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.DefaultConfig()
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	if *threshold > 0 {
		cfg.Threshold = *threshold
	}
	cfg.CacheBudget = *budget
	cfg.MergeMaxSegments = *mergeMax
	cfg.MergeDeadFraction = *mergeDead
	if *dataDir != "" {
		st, err := snapstore.Open(*dataDir, *retain)
		if err != nil {
			return fmt.Errorf("open snapshot store: %w", err)
		}
		cfg.Store = st
	}
	s := serve.NewServer(cfg)
	defer s.Close()
	if rep := s.Replay(); cfg.Store != nil {
		if rep.Err != nil {
			logger.Printf("snapshot replay: store error, starting empty: %v", rep.Err)
		}
		if len(rep.Skipped) > 0 {
			logger.Printf("snapshot replay: skipped corrupt version(s) %v", rep.Skipped)
		}
		if rep.Version > 0 {
			logger.Printf("warm restart: replayed corpus version %d (%d documents) from %s", rep.Version, rep.Docs, *dataDir)
		} else {
			logger.Printf("no usable snapshot in %s; starting empty", *dataDir)
		}
	}

	// Seed an initial corpus only when the store did not already hand us a
	// newer one — republishing the seed on every boot would bump the
	// version and shadow operator uploads after each restart.
	var names, texts []string
	if *dir != "" {
		err := filepath.WalkDir(*dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasSuffix(path, ".v") && !strings.HasSuffix(path, ".vh") {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(*dir, path)
			names = append(names, rel)
			texts = append(texts, string(data))
			return nil
		})
		if err != nil {
			return err
		}
	}
	if *protected > 0 {
		for _, pf := range corpus.BuildProtectedCorpus(*seed, *protected) {
			names = append(names, pf.Name)
			texts = append(texts, pf.Source)
		}
	}
	switch {
	case len(texts) > 0 && s.Replay().Version > 0:
		logger.Printf("ignoring -corpus/-protected seed: replayed snapshot version %d takes precedence", s.Replay().Version)
	case len(texts) > 0:
		version, indexed, err := s.PublishDocuments(names, texts)
		if err != nil {
			return fmt.Errorf("publish initial corpus: %w", err)
		}
		logger.Printf("published initial corpus: %d documents (version %d)", indexed, version)
	case s.Replay().Version == 0:
		logger.Printf("starting with an empty corpus; POST /v1/corpus to publish one")
	}

	// A configured http.Server instead of the bare ListenAndServe default:
	// header/read/write/idle timeouts bound how long a slow or stalled
	// client can pin a connection, and Shutdown gives SIGINT/SIGTERM a
	// drain path instead of dropping in-flight audits on the floor.
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Printf("serving on %s (queue %d, threshold %.2f, shutdown grace %s)",
		ln.Addr(), cfg.QueueDepth, cfg.Threshold, *grace)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: readiness 503s first so load balancers stop routing,
	// then the listener closes and every in-flight request — each audit is
	// scored inside its handler — completes before exit.
	logger.Printf("shutdown signal received; draining (grace %s)", *grace)
	s.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	s.Close()
	logger.Printf("drained; exiting")
	return nil
}
