package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// Compare-and-swap admits one winner per version: eight concurrent deltas
// that all name the live version as their If-Version race for it, exactly
// one commits, and every other answers 409 naming the winner's version.
func TestIfVersionOneConcurrentWinner(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	base, baseTexts := docSet(53, 4)
	if _, _, err := s.PublishDocuments(base, baseTexts); err != nil {
		t.Fatal(err)
	}

	const contenders = 8
	codes := make([]int, contenders)
	versions := make([]int64, contenders)
	conflicts := make([]uint64, contenders)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range contenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc := deltaDocs([]string{fmt.Sprintf("cas%d.v", i)}, []string{fmt.Sprintf("module cas%d(input a, output y); assign y = ~a; endmodule", i)})
			<-start
			code, cr, er := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: doc}, 1)
			codes[i], versions[i], conflicts[i] = code, cr.Version, er.Error.CurrentVersion
		}()
	}
	close(start)
	wg.Wait()

	winners := 0
	for i := range contenders {
		switch {
		case codes[i] == http.StatusOK && versions[i] == 2:
			winners++
		case codes[i] == http.StatusConflict && conflicts[i] == 2:
		default:
			t.Fatalf("contender %d = %d at version %d naming %d; want 200 at 2 or 409 naming 2", i, codes[i], versions[i], conflicts[i])
		}
	}
	if winners != 1 {
		t.Fatalf("%d contenders committed on If-Version 1, want exactly one (codes %v)", winners, codes)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var sr StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || sr.CorpusVersion != 2 || sr.CorpusLen != len(base)+1 {
		t.Fatalf("stats = version %d with %d docs (%v); want version 2 with %d", sr.CorpusVersion, sr.CorpusLen, err, len(base)+1)
	}
}
