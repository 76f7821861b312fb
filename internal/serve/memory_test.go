package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hostileBodyBytes is the test server's MaxBodyBytes, and each hostile
// request fills it.
const hostileBodyBytes = 2 << 20

// Hostile bodies cost the server memory in proportion to what it admits,
// not a token per posted byte or an AST node per operand: five shapes (a
// nest of "(", a valid expression a+a+… and a run of declarations, the last
// two also behind a `timescale directive), each as large as the body cap
// allows, are posted to /v1/syntax, /v1/scan, /v1/filter and /v1/audit, 16
// at a time. Every response is a verdict or a 429, and the heap, sampled every
// millisecond from runtime/metrics, stays under hostileHeapBound. The
// requests run in a child process, this test binary run again, which the
// parent kills once its resident set passes hostileRSSCap, so a regression
// fails this test rather than exhausting the host.
func TestHostileBodiesBounded(t *testing.T) {
	if os.Getenv("FREEHW_HOSTILE_CHILD") == "1" {
		postHostileBodies(t)
		return
	}
	if runtime.GOOS != "linux" {
		t.Skip("the child's memory ceiling reads /proc/<pid>/status")
	}
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestHostileBodiesBounded$", "-test.v")
	cmd.Env = append(os.Environ(), "FREEHW_HOSTILE_CHILD=1")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var peakRSS int64
	for tick := time.NewTicker(5 * time.Millisecond); ; {
		select {
		case err := <-done:
			tick.Stop()
			t.Logf("child peak RSS %d MB", peakRSS>>20)
			if err != nil {
				t.Fatalf("child process: %v\n%.4096s", err, out.String())
			}
			t.Logf("%s", out.String())
			return
		case <-tick.C:
			peakRSS = max(peakRSS, rssBytes(cmd.Process.Pid))
			if peakRSS > hostileRSSCap {
				cmd.Process.Kill()
				<-done
				t.Fatalf("child killed at %d MB resident, over the %d MB ceiling\n%.4096s", peakRSS>>20, hostileRSSCap>>20, out.String())
			}
		}
	}
}

// hostileHeapBound is the most heap the child may hold in objects above
// its baseline while the hostile requests run: 16 bodies at a time, eight
// times their size each. hostileRSSCap is the resident set past which the
// parent kills it. Both are set over what was measured, in the comment on
// postHostileBodies.
const (
	hostileHeapBound = 16 * hostileBodyBytes * 8
	hostileRSSCap    = 1 << 30
)

// rssBytes is pid's resident set from /proc, 0 once it is gone.
func rssBytes(pid int) int64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

func heapObjects() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// postHostileBodies is the child's half. Each shape is one round of 16
// requests at once, four to each endpoint, so the three bulk endpoints
// contend for the bulkhead's four slots while the audits score. Measured
// with 2 MiB bodies: the heap peaked 80–100 MB over its baseline, most of
// it the bodies themselves (the client's, the server's read buffer and the
// decoded string), and the child's resident set at 120–160 MB (480 MB
// under -race). With a token per source byte and no bulkhead on /v1/syntax
// the child passed the 1 GiB ceiling within a second; with a syntax check
// that built the AST, the `timescale shapes peaked at 459 MB (expression)
// and 798 MB (declarations).
func postHostileBodies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = hostileBodyBytes
	s := NewServer(cfg)
	defer s.Close()
	s.PublishDocuments([]string{"d.v"}, []string{v1Clean})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// code is a file of the shape n bytes long, its module named by id so
	// that no two requests share a memo entry. It is JSON-escaped: the
	// directive's line ends in \n.
	code := func(shape string, id, n int) string {
		head := fmt.Sprintf("module m%d; ", id)
		if s, ok := strings.CutPrefix(shape, "timescale "); ok {
			shape, head = s, "`timescale 1ns/1ps\\n"+head
		}
		switch shape {
		case "nest":
			return head + "wire w = " + strings.Repeat("(", n-len(head)-9)
		case "expression":
			return head + "wire w = a" + strings.Repeat("+a", (n-len(head)-23)/2) + "; endmodule"
		}
		return head + strings.Repeat("wire w; ", (n-len(head)-9)/8) + "endmodule"
	}
	// body wraps code in path's request. A filter candidate is licensed,
	// so it goes through the whole funnel.
	body := func(path, code string) []byte {
		if path == "/v1/filter" {
			return []byte(`{"candidates":[{"key":"k","licensed":true,"code":"` + code + `"}]}`)
		}
		return []byte(`{"code":"` + code + `"}`)
	}

	runtime.GC()
	base := heapObjects()
	var roundPeak atomic.Uint64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for tick := time.NewTicker(time.Millisecond); ; {
			if h := heapObjects(); h > roundPeak.Load() {
				roundPeak.Store(h)
			}
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
			}
		}
	}()

	paths := []string{"/v1/syntax", "/v1/scan", "/v1/filter", "/v1/audit"}
	var peak uint64
	id := 0
	for _, shape := range []string{"nest", "expression", "token run", "timescale expression", "timescale token run"} {
		start := time.Now()
		var wg sync.WaitGroup
		statuses := make([]int, 16)
		for i := range statuses {
			id++
			wg.Add(1)
			go func(i, id int) {
				defer wg.Done()
				path := paths[i%len(paths)]
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body(path, code(shape, id, hostileBodyBytes-64))))
				if err != nil {
					t.Errorf("%s %s: %v", shape, path, err)
					return
				}
				defer resp.Body.Close()
				statuses[i] = resp.StatusCode
				var syn SyntaxResponse
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
				case resp.StatusCode != http.StatusOK:
					t.Errorf("%s %s: status %d, want a verdict or 429", shape, path, resp.StatusCode)
				case path != "/v1/syntax":
					if b, err := io.ReadAll(resp.Body); err != nil || !json.Valid(b) {
						t.Errorf("%s %s: a 200 that is not JSON (%v)", shape, path, err)
					}
				case json.NewDecoder(resp.Body).Decode(&syn) != nil || syn.OK != (shape != "nest"):
					t.Errorf("%s %s: verdict %+v", shape, path, syn)
				}
			}(i, id)
		}
		wg.Wait()
		tally := map[string]int{}
		for i, c := range statuses {
			tally[paths[i%len(paths)]+" "+strconv.Itoa(c)]++
		}
		rp := roundPeak.Swap(0)
		peak = max(peak, rp)
		t.Logf("%-10s in %v, heap peak %.1f MB, statuses %v", shape, time.Since(start).Round(time.Millisecond), mb(rp-min(rp, base)), tally)
	}
	close(stop)
	sampler.Wait()
	peak = max(peak, roundPeak.Load(), heapObjects())
	t.Logf("heap peak %.1f MB over a %.1f MB baseline, bound %.0f MB", mb(peak-min(peak, base)), mb(base), mb(hostileHeapBound))
	if peak > base && peak-base > hostileHeapBound {
		t.Errorf("heap peaked %.1f MB over its baseline, bound %.0f MB", mb(peak-base), mb(hostileHeapBound))
	}
}

func mb(n uint64) float64 { return float64(n) / (1 << 20) }
