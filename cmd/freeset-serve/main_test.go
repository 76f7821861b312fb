package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// logBuffer is run's stderr: written by the server's goroutine, polled by
// the test's.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

var servingOn = regexp.MustCompile(`serving on (127\.0\.0\.1:\d+)`)

// serveOnce runs the command until check returns, then cancels it and
// returns its log once it has drained.
func serveOnce(t *testing.T, dataDir string, check func(addr string)) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var log logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-protected", "50", "-data-dir", dataDir, "-addr", "127.0.0.1:0", "-shutdown-grace", "5s"}, &log)
	}()
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		if m := servingOn.FindStringSubmatch(log.String()); m != nil {
			addr = m[1]
			continue
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v\n%s", err, log.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening address logged:\n%s", log.String())
		}
	}
	check(addr)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v\n%s", err, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not drain:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "drained; exiting") {
		t.Fatalf("no drain in the log:\n%s", log.String())
	}
	return log.String()
}

// readyVersion asks /v1/readyz and wants 200 with corpus version 1 over the
// 50 seeded documents.
func readyVersion(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ready struct {
		Ready         bool   `json:"ready"`
		CorpusVersion uint64 `json:"corpus_version"`
		CorpusLen     int    `json:"corpus_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d, %v", resp.StatusCode, err)
	}
	if !ready.Ready || ready.CorpusVersion != 1 || ready.CorpusLen != 50 {
		t.Fatalf("readyz = %+v, want ready at version 1 with 50 documents", ready)
	}
}

// Seed, serve, drain; then the same directory replays version 1 and the
// seed is ignored.
func TestServeSeedDrainAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	first := serveOnce(t, dir, func(addr string) { readyVersion(t, addr) })
	if !strings.Contains(first, "published initial corpus: 50 documents (version 1)") {
		t.Fatalf("first boot did not publish the seed:\n%s", first)
	}
	second := serveOnce(t, dir, func(addr string) { readyVersion(t, addr) })
	if !strings.Contains(second, "replayed corpus version 1") || !strings.Contains(second, "ignoring -corpus/-protected seed") {
		t.Fatalf("second boot did not replay version 1 over the seed:\n%s", second)
	}
}

func TestUnknownFlagIsAnError(t *testing.T) {
	var log bytes.Buffer
	err := run(context.Background(), []string{"-no-such-flag"}, &log)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -no-such-flag") {
		t.Fatalf("run -no-such-flag = %v, want an unknown-flag error", err)
	}
}
