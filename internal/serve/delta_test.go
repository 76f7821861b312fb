package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"freehw/internal/similarity"
)

// postCorpus posts a CorpusRequest with an optional If-Version header and
// returns the status plus both possible envelope decodings.
func postCorpus(t *testing.T, s *Server, req CorpusRequest, ifVersion uint64) (int, CorpusResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := ""
	if ifVersion > 0 {
		h = strconv.FormatUint(ifVersion, 10)
	}
	a := corpusCall(s.Handler(), "/v1/corpus", "application/json", h, body)
	return a.code, a.cr, a.er
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

// NDJSON delta uploads stream document lines straight into the segment
// builder and carry removals as {"remove": name} lines.
func TestNDJSONDeltaStreams(t *testing.T) {
	cfg := DefaultConfig()
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
