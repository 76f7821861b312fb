package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freehw/internal/failpoint"
)

// postRollback posts /v1/corpus?version=N with a raw If-Version header
// ("" = none) and returns the status plus both envelope decodings.
func postRollback(t *testing.T, s *Server, version uint64, ifVersion string) (int, CorpusResponse, ErrorResponse) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/corpus?version=%d", version), strings.NewReader("{}"))
	if ifVersion != "" {
		r.Header.Set("If-Version", ifVersion)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var cr CorpusResponse
	var er ErrorResponse
	if w.Code == http.StatusOK {
		json.Unmarshal(w.Body.Bytes(), &cr)
	} else {
		json.Unmarshal(w.Body.Bytes(), &er)
	}
	return w.Code, cr, er
}

// If-Version gates rollback like the other two publish modes: before PR 18
// the header was never read on ?version=N, so a stale or garbage
// precondition rolled back anyway.
func TestIfVersionConditionalRollback(t *testing.T) {
	s := durableServer(t, t.TempDir())
	for seed := int64(51); seed <= 52; seed++ {
		names, texts := docSet(seed, 5)
		if _, _, err := s.PublishDocuments(names, texts); err != nil {
			t.Fatal(err)
		}
	}

	code, _, er := postRollback(t, s, 1, "99")
	if code != http.StatusConflict || er.Error.Code != "version_conflict" || er.Error.CurrentVersion != 2 {
		t.Fatalf("stale rollback = %d %+v, want 409 version_conflict naming version 2", code, er.Error)
	}
	if code, _, er = postRollback(t, s, 1, "garbage"); code != http.StatusBadRequest || er.Error.Code != "bad_if_version" {
		t.Fatalf("garbage If-Version rollback = %d %+v, want 400 bad_if_version", code, er.Error)
	}
	if v := s.current().version; v != 2 {
		t.Fatalf("refused rollbacks advanced the version to %d", v)
	}

	code, cr, _ := postRollback(t, s, 1, "2")
	if code != http.StatusOK || cr.Version != 3 || cr.RolledBackFrom != 1 {
		t.Fatalf("conditional rollback = %d %+v, want version 3 rolled back from 1", code, cr)
	}
}

// Compare-and-swap admits one winner per version even when the contenders
// coalesce into one group-commit batch: before PR 18 every op in a batch
// was compared with the version read at batch start, so two deltas naming
// the same If-Version both answered 200.
func TestDeltaGroupCommitOneConditionalWinner(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.DisableAutoMerge = true
	s := NewServer(cfg)
	defer s.Close()
	base, baseTexts := docSet(53, 4)
	if _, _, err := s.PublishDocuments(base, baseTexts); err != nil {
		t.Fatal(err)
	}

	// Hold the leader (an unconditional delta, version 1 -> 2) between
	// durability and swap, as TestDeltaGroupCommitCoalesces does.
	inGate, releaseGate := make(chan struct{}), make(chan struct{})
	var gated atomic.Bool
	failpoint.Enable(FPBeforeSwap, func(string) error {
		if gated.CompareAndSwap(false, true) {
			close(inGate)
			<-releaseGate
		}
		return nil
	})

	// Op 0 leads; 1 and 2 both claim to be the only writer since version
	// 2; 3 is unconditional.
	ifVersions := []uint64{0, 2, 2, 0}
	codes := make([]int, len(ifVersions))
	versions := make([]int64, len(ifVersions))
	conflicts := make([]uint64, len(ifVersions))
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		doc := deltaDocs([]string{fmt.Sprintf("cas%d.v", i)}, []string{fmt.Sprintf("module cas%d(input a, output y); assign y = ~a; endmodule", i)})
		code, cr, er := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: doc}, ifVersions[i])
		codes[i], versions[i], conflicts[i] = code, cr.Version, er.Error.CurrentVersion
	}
	wg.Add(1)
	go post(0)
	<-inGate
	// Stage the followers one at a time, so the batch order is the index
	// order: op 1 is the first op applied, op 2 arrives behind it and is
	// carried, op 3 coalesces.
	for i := 1; i < len(ifVersions); i++ {
		wg.Add(1)
		go post(i)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			s.deltaMu.Lock()
			n := len(s.deltaPend)
			s.deltaMu.Unlock()
			if n == i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("followers staged = %d, want %d", n, i)
			}
		}
	}
	close(releaseGate)
	wg.Wait()

	if codes[0] != http.StatusOK || versions[0] != 2 {
		t.Fatalf("leader = %d at version %d, want 200 at 2", codes[0], versions[0])
	}
	if codes[1] != http.StatusOK || versions[1] != 3 {
		t.Fatalf("first conditional op = %d at version %d, want 200 at 3", codes[1], versions[1])
	}
	if codes[2] != http.StatusConflict || conflicts[2] != 3 {
		t.Fatalf("second conditional op = %d naming version %d, want 409 naming the winner's version 3", codes[2], conflicts[2])
	}
	if codes[3] != http.StatusOK || versions[3] != 3 {
		t.Fatalf("unconditional follower = %d at version %d, want 200 coalesced into the winner's version 3", codes[3], versions[3])
	}
	if st := s.current(); st.version != 3 || st.snap.Len() != len(base)+1+2 {
		t.Fatalf("live = version %d, %d docs; want version 3, %d docs", st.version, st.snap.Len(), len(base)+3)
	}
}
