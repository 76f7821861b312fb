package serve

import (
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// A 2 MB file of one production nested a million deep used to overflow the
// parser's goroutine stack: a fatal error, which no recover catches, so one
// POST took the whole server down. Now each nest — parentheses, begin and
// if — is a syntax error naming the nesting bound from /v1/syntax and a
// syntax rejection from /v1/filter, both served with 200. (A request takes
// well under a second; the wall-clock limit here only catches a hang.) The
// requests run in a child process, this test binary run again, so a parser
// without the bound fails this test instead of killing go test.
func TestSyntaxDeepNesting(t *testing.T) {
	if os.Getenv("FREEHW_DEEP_NESTING_CHILD") == "1" {
		postDeepNests(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSyntaxDeepNesting$", "-test.v")
	cmd.Env = append(os.Environ(), "FREEHW_DEEP_NESTING_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if len(out) > 4096 {
			out = out[:4096] // a stack overflow's trace runs to megabytes
		}
		t.Fatalf("child process: %v\n%s", err, out)
	}
}

func postDeepNests(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	h := s.Handler()
	const size = 2 << 20
	nests := map[string]string{
		"parens": "module m(input a, output y); assign y = " + strings.Repeat("(", size) + "a",
		"begin":  "module m; reg x; initial " + strings.Repeat("begin ", size/6) + "x = 1;",
		"if":     "module m; reg x; initial " + strings.Repeat("if (x) ", size/7) + "x = 1;",
	}
	for name, code := range nests {
		start := time.Now()
		var syn SyntaxResponse
		if status := postJSON(t, h, "/v1/syntax", SyntaxRequest{Code: code}, &syn); status != http.StatusOK || syn.OK ||
			!strings.Contains(syn.Error, "nesting deeper than") {
			t.Errorf("%s: /v1/syntax answered %d %+v, want 200 and the nesting bound's error", name, status, syn)
		}
		var filt FilterResponse
		req := FilterRequest{Stages: []string{"syntax"}, Candidates: []FilterCandidate{{Key: name, Code: code}}}
		if status := postJSON(t, h, "/v1/filter", req, &filt); status != http.StatusOK || len(filt.Verdicts) != 1 ||
			filt.Verdicts[0].Accept || filt.Verdicts[0].Stage != "syntax" {
			t.Errorf("%s: /v1/filter answered %d %+v, want 200 and a syntax rejection", name, status, filt)
		}
		if took := time.Since(start); took > 30*time.Second {
			t.Errorf("%s: two requests took %v", name, took)
		}
	}
}
