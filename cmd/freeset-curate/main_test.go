package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"freehw/internal/curation"
	"freehw/internal/vcache"
)

var finalCount = regexp.MustCompile(`(?m)^final dataset\s+(\d+)`)

// curate runs the command and returns its report, checking the headings
// and that the funnel kept something.
func curate(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	vcache.ResetShared()
	t.Cleanup(vcache.ResetShared)
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, errOut.String())
	}
	for _, heading := range []string{"===== Funnel =====", "===== Table I ====="} {
		if !strings.Contains(out.String(), heading) {
			t.Fatalf("run %v: stdout lacks %q:\n%s", args, heading, out.String())
		}
	}
	m := finalCount.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("run %v: no final dataset row:\n%s", args, out.String())
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Fatalf("run %v: final dataset is empty:\n%s", args, out.String())
	}
	return out.String(), errOut.String()
}

func TestRun(t *testing.T) {
	cached, log := curate(t, "-scale", "0.02", "-repeat", "2", "-cache-budget", "1048576")
	if !strings.Contains(log, "funnel re-run 1:") || !strings.Contains(log, "verdict cache:") {
		t.Fatalf("stderr lacks the re-run or cache lines:\n%s", log)
	}
	if got := vcache.Shared(curation.FreeSetOptions().Dedup).Budget(); got != 1048576 {
		t.Fatalf("-cache-budget 1048576 left the shared store's budget at %d", got)
	}
	uncached, log := curate(t, "-scale", "0.02", "-no-cache")
	if strings.Contains(log, "verdict cache:") {
		t.Fatalf("-no-cache still reports a verdict cache:\n%s", log)
	}
	if cached != uncached {
		t.Fatalf("report depends on the cache:\n%s\nvs\n%s", cached, uncached)
	}
}

func TestShardsFlagIsGone(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-shards", "4"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -shards") {
		t.Fatalf("run -shards 4 = %v, want an unknown-flag error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected command line wrote a report:\n%s", out.String())
	}
}
