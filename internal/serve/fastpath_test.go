package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"freehw/internal/similarity"
)

// auditRequestCases is the parser's equivalence table, and the seed corpus
// of FuzzParseAuditRequest.
var auditRequestCases = []string{
	`{"code":"module m(); endmodule"}`,
	`{"code":"line1\nline2\ttab \"quoted\" back\\slash"}`,
	`{"code":"html <= >> & escapes"}`,
	`{"code":"unicode é 中"}`,
	`{"code":"slash \/ bell \b feed \f cr \r"}`,
	`{"code":"x","top_k":5}`,
	`{"code":"x","top_k":-3}`,
	`{"code":"x","threshold":0.8}`,
	`{"code":"x","threshold":0.125,"top_k":2}`,
	`{"code":"x","threshold":1e-7}`,
	`{"code":"x","threshold":2.5e10}`,
	`{"code":"x","threshold":0}`,
	`{"code":"x","threshold":-0.5}`,
	`  { "code" : "spaced" , "top_k" : 1 }  `,
	`{}`,
	`{"code":""}`,
	// Inputs the fast path must refuse or both must reject; what
	// matters is agreement, checked below either way.
	`{"code":"x","top_k":1.5}`,
	`{"code":"x","top_k":01}`,
	`{"code":"x","threshold":01.5}`,
	`{"code":"x","threshold":+1}`,
	`{"code":"x","threshold":.5}`,
	`{"code":"x","threshold":1.}`,
	`{"code":"x","unknown_field":3}`,
	`{"code":"x"`,
	`{"code":"x"} trailing`,
	`{"code":"bad \q escape"}`,
	`{"code":"surrogate 𝄞 pair"}`,
	`[1,2]`,
	`null`,
	``,
	// Input ending inside a string that has no escape yet: these two
	// panicked the parser (PR 18); `{"code":"abc` above never did.
	`{"`,
	`{"code":"`,
}

// The hand-rolled request parser must either decode exactly what
// encoding/json decodes, or refuse (ok=false) so the caller falls back.
// It must never return ok=true with a different result.
func TestParseAuditRequestEquivalence(t *testing.T) {
	for _, tc := range auditRequestCases {
		var fast AuditRequest
		ok := parseAuditRequest([]byte(tc), &fast)
		var ref AuditRequest
		err := json.Unmarshal([]byte(tc), &ref)
		if !ok {
			continue // fast path refused: fallback handles it, nothing to compare
		}
		if err != nil {
			t.Errorf("%q: fast path accepted what encoding/json rejects (%v)", tc, err)
			continue
		}
		if fast != ref {
			t.Errorf("%q: fast %+v != json %+v", tc, fast, ref)
		}
	}
}

// A body that ends inside a string is a 400 carrying encoding/json's own
// message — not a parser panic answered 500 by the recover middleware.
func TestTruncatedAuditBodyIsBadJSON(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	for _, body := range []string{`{"`, `{"code":"`} {
		code, raw := do(t, s.Handler(), http.MethodPost, "/v1/audit", "application/json", []byte(body))
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%q: %v: %s", body, err, raw)
		}
		want := "bad request: " + json.Unmarshal([]byte(body), new(AuditRequest)).Error()
		if code != http.StatusBadRequest || er.Error.Code != "bad_json" || er.Error.Message != want {
			t.Errorf("%q = %d %+v, want 400 bad_json %q", body, code, er.Error, want)
		}
	}
}

// auditResponseCases is the encoder's equivalence table, and the seed
// corpus of FuzzWriteAuditFast.
var auditResponseCases = []struct {
	res       auditResult
	threshold float64
	cached    bool
}{
	{auditResult{best: similarity.Match{Name: "d1.v", Index: 1, Score: 0.875}, version: 3, length: 500}, 0.8, false},
	{auditResult{best: similarity.Match{Name: "top.v", Index: 0, Score: 1}, version: 1, length: 1}, 0.8, true},
	{auditResult{best: similarity.Match{Index: -1}}, 0.8, false},
	{auditResult{best: similarity.Match{Name: "x.v", Index: 7, Score: 3.0e-7}, version: 2, length: 9}, 0.5, false},
	{auditResult{best: similarity.Match{Name: "x.v", Index: 7, Score: 0.3333333333333333}, version: 2, length: 9}, 0.125, false},
	{
		auditResult{
			best: similarity.Match{Name: "a.v", Index: 0, Score: 0.9},
			matches: []similarity.Match{
				{Name: "a.v", Index: 0, Score: 0.9},
				{Name: "b.v", Index: 1, Score: 0.25},
			},
			version: 5, length: 2,
		},
		0.8, false,
	},
}

// The hand-rolled response encoder must emit bytes identical to
// encoding/json for every response it accepts.
func TestWriteAuditFastEquivalence(t *testing.T) {
	for _, tc := range auditResponseCases {
		violation := tc.res.best.Index >= 0 && tc.res.best.Score >= tc.threshold
		w := httptest.NewRecorder()
		if !writeAuditFast(w, &tc.res, tc.threshold, violation, tc.cached) {
			t.Errorf("%+v: fast encoder refused a plain-ASCII response", tc.res)
			continue
		}
		ref := httptest.NewRecorder()
		writeJSON(ref, 200, auditResponse(&tc.res, tc.threshold, violation, tc.cached))
		if w.Body.String() != ref.Body.String() {
			t.Errorf("wire bytes diverge:\nfast: %q\njson: %q", w.Body.String(), ref.Body.String())
		}
	}

	// Names needing escaping and non-finite floats must be refused, not
	// mis-encoded.
	refuse := []auditResult{
		{best: similarity.Match{Name: `quote"name`, Index: 0, Score: 0.5}},
		{best: similarity.Match{Name: "html<name>", Index: 0, Score: 0.5}},
		{best: similarity.Match{Name: "non-ascii-é", Index: 0, Score: 0.5}},
		{best: similarity.Match{Name: "x", Index: 0, Score: math.Inf(1)}},
	}
	for _, res := range refuse {
		w := httptest.NewRecorder()
		if writeAuditFast(w, &res, 0.8, false, false) {
			t.Errorf("%+v: fast encoder should have refused", res.best)
		}
	}
}

// appendJSONFloat must match encoding/json bit for bit across magnitude
// regimes, including the squeezed exponent form.
func TestAppendJSONFloatEquivalence(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.8, 0.125, 1.0 / 3.0, 0.9999999999999999,
		1e-6, 9.999e-7, 1e-7, 1e-21, 5e-324,
		1e20, 1e21, 1.7976931348623157e308,
		-2.5e-9, 3.141592653589793,
	}
	for _, f := range vals {
		got := string(appendJSONFloat(nil, f))
		ref, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(ref) {
			t.Errorf("%v: fast %q != json %q", f, got, ref)
		}
	}
	if !reflect.DeepEqual(appendJSONFloat([]byte("x:"), 0.5), []byte("x:0.5")) {
		t.Error("appendJSONFloat must append, not replace")
	}
}
