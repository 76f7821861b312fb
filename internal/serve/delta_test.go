package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// postCorpus posts a CorpusRequest with an optional If-Version header and
// returns the status plus both possible envelope decodings.
func postCorpus(t *testing.T, s *Server, req CorpusRequest, ifVersion uint64) (int, CorpusResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/corpus", bytes.NewReader(body))
	if ifVersion > 0 {
		r.Header.Set("If-Version", strconv.FormatUint(ifVersion, 10))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var cr CorpusResponse
	var er ErrorResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
			t.Fatalf("bad corpus response %q: %v", w.Body.String(), err)
		}
	} else {
		json.Unmarshal(w.Body.Bytes(), &er)
	}
	return w.Code, cr, er
}

func deltaDocs(names, texts []string) []CorpusDocument {
	docs := make([]CorpusDocument, len(names))
	for i := range names {
		docs[i] = CorpusDocument{Name: names[i], Text: texts[i]}
	}
	return docs
}

// assertServedMatchesOffline pins every query's served verdict to the
// offline single-corpus rebuild of the expected live documents — the
// bit-identity contract across segmentation states.
func assertServedMatchesOffline(t *testing.T, s *Server, names, texts, queries []string, wantVersion uint64) {
	t.Helper()
	offline := similarity.NewCorpus(names, texts)
	for i, q := range queries {
		m, v := auditBest(t, s, q)
		if v != wantVersion {
			t.Fatalf("query %d: served version %d, want %d", i, v, wantVersion)
		}
		if want := offline.Best(q); m != want {
			t.Fatalf("query %d: served %+v != offline rebuild %+v", i, m, want)
		}
	}
}

// A delta publish appends one segment and tombstones removals without
// rebuilding: verdicts stay bit-identical to a full offline rebuild of
// the live set, the version advances once per publish, and a restart
// replays the segmented corpus exactly.
func TestDeltaPublishAppendRemove(t *testing.T) {
	dir := t.TempDir()
	st, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = st
	cfg.DisableAutoMerge = true // keep the segment layout deterministic
	s := NewServer(cfg)
	defer s.Close()

	names1, texts1 := docSet(31, 12)
	names2, texts2 := docSet(32, 5)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}

	// Delta: add 5 docs, remove 2 of the originals.
	code, cr, _ := postCorpus(t, s, CorpusRequest{
		Mode:      "delta",
		Documents: deltaDocs(names2, texts2),
		Remove:    []string{names1[3], names1[7]},
	}, 0)
	if code != http.StatusOK {
		t.Fatalf("delta publish = %d", code)
	}
	if cr.Version != 2 || cr.Added != 5 || cr.Removed != 2 || cr.Indexed != 15 || !cr.Persisted {
		t.Fatalf("delta response = %+v", cr)
	}

	var liveNames, liveTexts []string
	for i := range names1 {
		if i != 3 && i != 7 {
			liveNames = append(liveNames, names1[i])
			liveTexts = append(liveTexts, texts1[i])
		}
	}
	liveNames = append(liveNames, names2...)
	liveTexts = append(liveTexts, texts2...)
	queries := append(append([]string(nil), liveTexts[:4]...), texts1[3], "module fresh(); endmodule")
	assertServedMatchesOffline(t, s, liveNames, liveTexts, queries, 2)

	// The served snapshot is genuinely segmented, not rebuilt.
	if got := s.current().snap.Segments(); got != 2 {
		t.Fatalf("segments after delta = %d, want 2", got)
	}

	// Removing a name with no live occurrence is a no-op, counted as 0.
	code, cr, _ = postCorpus(t, s, CorpusRequest{Mode: "delta", Remove: []string{names1[3]}}, 0)
	if code != http.StatusOK || cr.Removed != 0 || cr.Version != 3 {
		t.Fatalf("re-remove = %d %+v", code, cr)
	}

	// Restart: the segmented corpus replays with byte-identical verdicts.
	s.Close()
	s2 := durableServer(t, dir)
	if rep := s2.Replay(); rep.Version != 3 || rep.Docs != 15 {
		t.Fatalf("replay = %+v", rep)
	}
	assertServedMatchesOffline(t, s2, liveNames, liveTexts, queries, 3)
}

// If-Version gates both publish modes: a stale precondition answers the
// structured 409 naming the current version and changes nothing.
func TestIfVersionConditionalPublish(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	names, texts := docSet(33, 6)
	if _, _, err := s.PublishDocuments(names, texts); err != nil {
		t.Fatal(err)
	}

	// Stale precondition on a delta.
	code, _, er := postCorpus(t, s, CorpusRequest{
		Mode:      "delta",
		Documents: deltaDocs([]string{"x.v"}, []string{"module x(); endmodule"}),
	}, 9)
	if code != http.StatusConflict {
		t.Fatalf("stale delta = %d, want 409", code)
	}
	if er.Error.Code != "version_conflict" || er.Error.CurrentVersion != 1 {
		t.Fatalf("conflict envelope = %+v, want version_conflict naming version 1", er.Error)
	}
	if v := s.current().version; v != 1 {
		t.Fatalf("conflicted publish advanced the version to %d", v)
	}

	// Matching precondition commits.
	code, cr, _ := postCorpus(t, s, CorpusRequest{
		Mode:      "delta",
		Documents: deltaDocs([]string{"x.v"}, []string{"module x(); endmodule"}),
	}, 1)
	if code != http.StatusOK || cr.Version != 2 || cr.Added != 1 {
		t.Fatalf("conditional delta = %d %+v", code, cr)
	}

	// Replace mode honors the same header.
	code, _, er = postCorpus(t, s, CorpusRequest{Documents: deltaDocs(names, texts)}, 1)
	if code != http.StatusConflict || er.Error.CurrentVersion != 2 {
		t.Fatalf("stale replace = %d %+v", code, er.Error)
	}
	code, cr, _ = postCorpus(t, s, CorpusRequest{Documents: deltaDocs(names, texts)}, 2)
	if code != http.StatusOK || cr.Version != 3 {
		t.Fatalf("conditional replace = %d %+v", code, cr)
	}

	// Garbage header is a 400, not a silent unconditional publish.
	r := httptest.NewRequest(http.MethodPost, "/v1/corpus", strings.NewReader(`{"documents":[{"name":"y.v","text":"module y(); endmodule"}]}`))
	r.Header.Set("If-Version", "x")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad If-Version = %d, want 400", w.Code)
	}

	// Mode validation: unknown modes and replace+remove are structured 400s.
	if code, _, er = postCorpus(t, s, CorpusRequest{Mode: "merge"}, 0); code != http.StatusBadRequest || er.Error.Code != "bad_mode" {
		t.Fatalf("bad mode = %d %+v", code, er.Error)
	}
	if code, _, er = postCorpus(t, s, CorpusRequest{Documents: deltaDocs(names[:1], texts[:1]), Remove: []string{"a"}}, 0); code != http.StatusBadRequest || er.Error.Code != "bad_mode" {
		t.Fatalf("replace+remove = %d %+v", code, er.Error)
	}
	// A delta with neither documents nor removals is still empty_corpus.
	if code, _, er = postCorpus(t, s, CorpusRequest{Mode: "delta"}, 0); code != http.StatusBadRequest || er.Error.Code != "empty_corpus" {
		t.Fatalf("empty delta = %d %+v", code, er.Error)
	}
}

// NDJSON delta uploads stream document lines straight into the segment
// builder and carry removals as {"remove": name} lines.
func TestNDJSONDeltaStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAutoMerge = true
	s := NewServer(cfg)
	defer s.Close()
	names1, texts1 := docSet(34, 8)
	names2, texts2 := docSet(35, 3)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}

	var body bytes.Buffer
	for i := range names2 {
		line, _ := json.Marshal(CorpusLine{Name: names2[i], Text: texts2[i]})
		body.Write(line)
		body.WriteByte('\n')
	}
	rm, _ := json.Marshal(CorpusLine{Remove: names1[0]})
	body.Write(rm)
	body.WriteByte('\n')

	r := httptest.NewRequest(http.MethodPost, "/v1/corpus?mode=delta", &body)
	r.Header.Set("Content-Type", "application/x-ndjson")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("ndjson delta = %d %s", w.Code, w.Body.String())
	}
	var cr CorpusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Version != 2 || cr.Added != 3 || cr.Removed != 1 || cr.Indexed != 10 {
		t.Fatalf("ndjson delta response = %+v", cr)
	}

	liveNames := append(append([]string(nil), names1[1:]...), names2...)
	liveTexts := append(append([]string(nil), texts1[1:]...), texts2...)
	queries := append(append([]string(nil), liveTexts[:3]...), texts1[0])
	assertServedMatchesOffline(t, s, liveNames, liveTexts, queries, 2)
}

// Concurrent delta uploads group-commit: while one leader is mid-publish,
// every delta that arrives coalesces into a single follow-up batch with
// ONE durability write and ONE version bump, not one per upload.
func TestDeltaGroupCommitCoalesces(t *testing.T) {
	defer failpoint.DisableAll()
	cfg := DefaultConfig()
	cfg.DisableAutoMerge = true
	s := NewServer(cfg)
	defer s.Close()
	base, baseTexts := docSet(36, 4)
	if _, _, err := s.PublishDocuments(base, baseTexts); err != nil {
		t.Fatal(err)
	}

	const followers = 7
	inGate := make(chan struct{})
	releaseGate := make(chan struct{})
	var gated atomic.Bool
	failpoint.Enable(FPBeforeSwap, func(string) error {
		if gated.CompareAndSwap(false, true) {
			close(inGate)
			<-releaseGate
		}
		return nil
	})

	versions := make([]uint64, followers+1)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		name := fmt.Sprintf("delta%d.v", i)
		text := fmt.Sprintf("module delta%d(input a, output y); assign y = a ^ %d'd1; endmodule", i, 2+i%6)
		code, cr, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: deltaDocs([]string{name}, []string{text})}, 0)
		if code != http.StatusOK {
			t.Errorf("delta %d = %d", i, code)
			return
		}
		versions[i] = uint64(cr.Version)
	}
	// The leader enters first and blocks inside its publish.
	wg.Add(1)
	go post(0)
	<-inGate
	// Followers pile up behind the publish lock while the leader is held.
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go post(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.deltaMu.Lock()
		n := len(s.deltaPend)
		s.deltaMu.Unlock()
		if n == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers staged = %d, want %d", n, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(releaseGate)
	wg.Wait()

	// Exactly two generations: the leader's, then one coalesced batch.
	counts := map[uint64]int{}
	for _, v := range versions {
		counts[v]++
	}
	if counts[2] != 1 || counts[3] != followers || len(counts) != 2 {
		t.Fatalf("publish versions = %v, want one op at v2 and all %d followers coalesced at v3", versions, followers)
	}
	if got := s.current().snap.Len(); got != 4+followers+1 {
		t.Fatalf("live docs = %d, want %d", got, 4+followers+1)
	}
}

// The background merger compacts the segment set below the configured
// bound and rebuilds mostly-dead segments — without changing the served
// version or any verdict.
func TestBackgroundMergeCompacts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MergeMaxSegments = 2
	s := NewServer(cfg)
	defer s.Close()
	names1, texts1 := docSet(37, 6)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}

	var allNames, allTexts []string
	allNames = append(allNames, names1...)
	allTexts = append(allTexts, texts1...)
	for d := 0; d < 4; d++ {
		names, texts := docSet(int64(40+d), 2)
		code, _, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: deltaDocs(names, texts)}, 0)
		if code != http.StatusOK {
			t.Fatalf("delta %d = %d", d, code)
		}
		allNames = append(allNames, names...)
		allTexts = append(allTexts, texts...)
	}
	wantVersion := s.current().version

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.current().snap
		compact := snap.Segments() <= cfg.MergeMaxSegments
		for i := 0; compact && i < snap.Segments(); i++ {
			if snap.SegmentLive(i) != snap.Segment(i).Docs() {
				compact = false
			}
		}
		if compact {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("merger never compacted: %d segments", snap.Segments())
		}
		time.Sleep(time.Millisecond)
	}
	// Merges are version-neutral and verdict-neutral.
	queries := append(append([]string(nil), allTexts[:5]...), "module probe(); endmodule")
	assertServedMatchesOffline(t, s, allNames, allTexts, queries, wantVersion)

	// Tombstone most of one segment: the dead-fraction rule compacts it.
	code, cr, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Remove: names1[:5]}, 0)
	if code != http.StatusOK || cr.Removed != 5 {
		t.Fatalf("bulk remove = %d %+v", code, cr)
	}
	wantVersion = s.current().version
	deadline = time.Now().Add(10 * time.Second)
	for {
		snap := s.current().snap
		clean := true
		for i := 0; i < snap.Segments(); i++ {
			if snap.SegmentLive(i) != snap.Segment(i).Docs() {
				clean = false
			}
		}
		if clean && snap.Segments() <= cfg.MergeMaxSegments {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("merger never compacted the tombstoned segment")
		}
		time.Sleep(time.Millisecond)
	}
	var liveNames, liveTexts []string
	for i := range allNames {
		if i >= 5 { // names1[:5] were removed
			liveNames = append(liveNames, allNames[i])
			liveTexts = append(liveTexts, allTexts[i])
		}
	}
	queries = append(append([]string(nil), liveTexts[:4]...), allTexts[0])
	assertServedMatchesOffline(t, s, liveNames, liveTexts, queries, wantVersion)
}

// Crash a delta publish at every persistence failpoint, in BOTH error and
// panic modes: the live server answers 500 and keeps serving the old
// generation's exact verdicts; a restart recovers the version
// crashRecovers names, byte-identical to the offline rebuild, with only
// live files on disk; and the retried delta then lands.
func TestDeltaKillAndRecoverEveryFailpoint(t *testing.T) {
	names1, texts1 := docSet(51, 10)
	names2, texts2 := docSet(52, 4)
	queries := append(append([]string(nil), texts1[:3]...), texts2[:2]...)
	// Live set after the delta: names1 minus its first doc, plus names2.
	liveNames := append(append([]string(nil), names1[1:]...), names2...)
	liveTexts := append(append([]string(nil), texts1[1:]...), texts2...)

	for _, fp := range persistenceFailpoints(t) {
		for _, mode := range []string{"error", "panic"} {
			t.Run(fp+"/"+mode, func(t *testing.T) {
				defer failpoint.DisableAll()
				dir := t.TempDir()
				s := durableServer(t, dir)
				if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
					t.Fatal(err)
				}

				crashModes[mode](fp)
				req := CorpusRequest{Mode: "delta", Documents: deltaDocs(names2, texts2), Remove: names1[:1]}
				code, _, _ := postCorpus(t, s, req, 0)
				if code != http.StatusInternalServerError {
					t.Fatalf("crashed delta = %d, want 500", code)
				}
				failpoint.DisableAll()

				// Never half-swapped: still version 1, still corpus 1's verdicts.
				assertServedMatchesOffline(t, s, names1, texts1, queries, 1)
				s.Close()

				// Restart replays the version the table names.
				s2 := durableServer(t, dir)
				rep := s2.Replay()
				if rep.Version != crashRecovers[fp] || len(rep.Skipped) != 0 {
					t.Fatalf("replay = %+v, want v%d skipping nothing", rep, crashRecovers[fp])
				}
				assertOnlyLiveFiles(t, s2.snaps)
				if rep.Version == 1 {
					assertServedMatchesOffline(t, s2, names1, texts1, queries, 1)
				} else {
					assertServedMatchesOffline(t, s2, liveNames, liveTexts, queries, 2)
				}

				// At-least-once: the retried delta commits on the recovered state.
				code, cr, _ := postCorpus(t, s2, req, 0)
				if code != http.StatusOK || cr.Version != int64(rep.Version)+1 {
					t.Fatalf("retried delta = %d %+v", code, cr)
				}
				if rep.Version == 1 {
					assertServedMatchesOffline(t, s2, liveNames, liveTexts, queries, 2)
				}
			})
		}
	}
}

// An injected fault — or panic — at the merge-swap boundary abandons the
// merge without touching serving: verdicts, version, and the segment set
// stay exactly as published, and a restart replays the unmerged layout
// byte-identically. Once the fault clears, the next kick compacts.
func TestMergeSwapFaultLeavesServingIntact(t *testing.T) {
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			defer failpoint.DisableAll()
			dir := t.TempDir()
			// Any delta makes the merger want to compact.
			mergyServer := func() *Server {
				st, err := snapstore.Open(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.Store = st
				cfg.MergeMaxSegments = 1
				return NewServer(cfg)
			}
			s := mergyServer()
			defer s.Close()

			var fired atomic.Bool
			failpoint.Enable(FPMergeSwap, func(string) error {
				fired.Store(true)
				if mode == "panic" {
					panic(failpoint.ErrInjected)
				}
				return failpoint.ErrInjected
			})

			names1, texts1 := docSet(61, 5)
			names2, texts2 := docSet(62, 3)
			if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
				t.Fatal(err)
			}
			code, _, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: deltaDocs(names2, texts2)}, 0)
			if code != http.StatusOK {
				t.Fatalf("delta = %d", code)
			}
			deadline := time.Now().Add(5 * time.Second)
			for !fired.Load() {
				if time.Now().After(deadline) {
					t.Fatal("merger never reached the swap failpoint")
				}
				time.Sleep(time.Millisecond)
			}

			// The abandoned merge left the published layout untouched.
			allNames := append(append([]string(nil), names1...), names2...)
			allTexts := append(append([]string(nil), texts1...), texts2...)
			queries := append(append([]string(nil), allTexts[:4]...), "module probe(); endmodule")
			assertServedMatchesOffline(t, s, allNames, allTexts, queries, 2)
			if got := s.current().snap.Segments(); got != 2 {
				t.Fatalf("segments after abandoned merge = %d, want 2", got)
			}
			s.Close()

			// Restart replays the unmerged segment set byte-identically.
			s2 := mergyServer()
			defer s2.Close()
			if rep := s2.Replay(); rep.Version != 2 || len(rep.Skipped) != 0 {
				t.Fatalf("replay = %+v", rep)
			}
			assertServedMatchesOffline(t, s2, allNames, allTexts, queries, 2)

			// Fault cleared: the next publish's kick compacts to one segment
			// with verdicts unchanged.
			failpoint.DisableAll()
			names3, texts3 := docSet(63, 1)
			if code, _, _ := postCorpus(t, s2, CorpusRequest{Mode: "delta", Documents: deltaDocs(names3, texts3)}, 0); code != http.StatusOK {
				t.Fatalf("post-fault delta = %d", code)
			}
			allNames = append(allNames, names3...)
			allTexts = append(allTexts, texts3...)
			deadline = time.Now().Add(10 * time.Second)
			for s2.current().snap.Segments() > 1 {
				if time.Now().After(deadline) {
					t.Fatalf("merger never compacted after the fault cleared: %d segments", s2.current().snap.Segments())
				}
				time.Sleep(time.Millisecond)
			}
			assertServedMatchesOffline(t, s2, allNames, allTexts, queries, 3)
		})
	}
}

// Rollback composes with segmentation: republishing a retained
// multi-segment version restores its exact live set — segments,
// tombstones, and verdicts — as a new durable version.
func TestRollbackToSegmentedVersion(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir)
	names1, texts1 := docSet(81, 6)
	names2, texts2 := docSet(82, 3)
	if _, _, err := s.PublishDocuments(names1, texts1); err != nil {
		t.Fatal(err)
	}
	// v2: segmented (delta add + remove). v3: another delta on top.
	if code, _, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: deltaDocs(names2, texts2), Remove: names1[:1]}, 0); code != http.StatusOK {
		t.Fatalf("delta = %d", code)
	}
	if code, _, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Remove: names2[:2]}, 0); code != http.StatusOK {
		t.Fatalf("delta 2 = %d", code)
	}

	r := httptest.NewRequest(http.MethodPost, "/v1/corpus?version=2", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("rollback = %d %s", w.Code, w.Body.String())
	}
	var cr CorpusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Version != 4 || cr.Indexed != 8 {
		t.Fatalf("rollback response = %+v, want version 4 with v2's 8 live docs", cr)
	}

	liveNames := append(append([]string(nil), names1[1:]...), names2...)
	liveTexts := append(append([]string(nil), texts1[1:]...), texts2...)
	queries := append(append([]string(nil), liveTexts[:3]...), texts1[0])
	assertServedMatchesOffline(t, s, liveNames, liveTexts, queries, 4)

	// And the rolled-back segmented version survives a restart.
	s.Close()
	s2 := durableServer(t, dir)
	if rep := s2.Replay(); rep.Version != 4 {
		t.Fatalf("replay = %+v", rep)
	}
	assertServedMatchesOffline(t, s2, liveNames, liveTexts, queries, 4)

	// A further delta on the rolled-back state still works.
	if code, cr2, _ := postCorpus(t, s2, CorpusRequest{Mode: "delta", Remove: names2[:1]}, 0); code != http.StatusOK || cr2.Version != 5 || cr2.Removed != 1 {
		t.Fatalf("post-rollback delta = %d %+v", code, cr2)
	}
}

// Stats reports the served snapshot's segment count.
func TestStatsReportsSegments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableAutoMerge = true
	s := NewServer(cfg)
	defer s.Close()
	names, texts := docSet(71, 3)
	if _, _, err := s.PublishDocuments(names, texts); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := postCorpus(t, s, CorpusRequest{Mode: "delta", Documents: deltaDocs([]string{"z.v"}, []string{"module z(); endmodule"})}, 0); code != http.StatusOK {
		t.Fatalf("delta = %d", code)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var sr StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Segments != 2 || sr.CorpusLen != 4 {
		t.Fatalf("stats segments=%d corpus_len=%d, want 2 and 4", sr.Segments, sr.CorpusLen)
	}
}
