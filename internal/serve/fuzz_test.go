package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"freehw/internal/similarity"
)

// Whatever the hand-rolled request parser accepts, encoding/json accepts
// and decodes to the same struct. (What it refuses falls back, so refusal
// is always safe; a panic is not.)
func FuzzParseAuditRequest(f *testing.F) {
	for _, tc := range auditRequestCases {
		f.Add([]byte(tc))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, ref AuditRequest
		if !parseAuditRequest(body, &fast) {
			return
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("%q: fast path accepted what encoding/json rejects: %v", body, err)
		}
		// NaN cannot come out of a JSON number, so == is DeepEqual here.
		if fast != ref {
			t.Fatalf("%q: fast %+v != json %+v", body, fast, ref)
		}
	})
}

// Whatever the hand-rolled response encoder writes is byte for byte what
// encoding/json writes for the same verdict.
func FuzzWriteAuditFast(f *testing.F) {
	for _, tc := range auditResponseCases {
		second, secondScore := "", 0.0
		if len(tc.res.matches) > 1 {
			second, secondScore = tc.res.matches[1].Name, tc.res.matches[1].Score
		}
		f.Add(tc.res.best.Name, tc.res.best.Index, tc.res.best.Score, tc.threshold, tc.res.version, tc.res.length, tc.cached, second, secondScore)
	}
	f.Add(`quote"name`, 0, math.Inf(1), math.NaN(), uint64(math.MaxUint64), -1, true, "html<name>", math.Inf(-1))
	f.Fuzz(func(t *testing.T, name string, index int, score, threshold float64, version uint64, length int, cached bool, second string, secondScore float64) {
		res := auditResult{best: similarity.Match{Name: name, Index: index, Score: score}, version: version, length: length}
		if second != "" {
			res.matches = []similarity.Match{res.best, {Name: second, Index: index + 1, Score: secondScore}}
		}
		violation := index >= 0 && score >= threshold
		w := httptest.NewRecorder()
		if !writeAuditFast(w, &res, threshold, violation, cached) {
			return
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(auditResponse(&res, threshold, violation, cached)); err != nil {
			t.Fatalf("fast path wrote what encoding/json refuses: %v\nfast: %q", err, w.Body.Bytes())
		}
		if !bytes.Equal(w.Body.Bytes(), ref.Bytes()) {
			t.Fatalf("wire bytes diverge:\nfast: %q\njson: %q", w.Body.Bytes(), ref.Bytes())
		}
	})
}
