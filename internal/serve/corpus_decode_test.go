package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"freehw/internal/corpus"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// corpusBodyCases seed FuzzDecodeCorpus and run through the same
// differential check as a table.
var corpusBodyCases = []string{
	`{"documents":[{"name":"a.v","text":"module a; endmodule"}]}`,
	`{"documents":[{"name":"a.v","text":"module a; endmodule"},{"name":"b.v","text":"module B(input X); endmodule"}],"mode":"delta","remove":["z.v"]}`,
	`{"mode":"delta","documents":[{"name":"a.v","text":"x"}],"index":"all"}`,
	`{"MODE":"append","Documents":[{"NAME":"a.v","Text":"wire w;"}],"INDEX":"curated","Remove":["q"]}`,
	`{"documents":null,"mode":"delta","remove":["a.v"]}`,
	`{"documents":[null,{"name":"n"},{}]}`,
	`{"documents":[],"future":{"nested":[1,2,{"x":null}]},"also":"skipped","mode":"replace"}`,
	`{"repos":[{"name":"acme/ip","spdx":"MIT","files":[{"path":"a.v","content":"module a; endmodule"}]}],"index":"all"}`,
	`{"mode":"delta","mode":"replace","remove":["a"],"remove":["b","c"],"index":null}`,
	`null`,
	` {"documents" : [ {"name":"sp.v" , "text":"a b"} ] } ` + "\n",
	`{"documents":[{"name":"a.v","text":"x"}]} trailing`,
	`{"documents":[{"name":"a.v","text":"x"}]}{}`,
	`{"documents":[{"name":"a.v","text":"x"}],"documents":[{"name":"b.v","text":"y"}]}`,
	`{"documents":[{"name":"a.v","text":"x"},]}`,
	`{"documents":[{"name":1}]}`,
	`{"documents":{"name":"a.v"}}`,
	`{"documents":"a.v"}`,
	`{"mode":5}`,
	`{"remove":"a.v"}`,
	`[{"name":"a.v"}]`,
	`"documents"`,
	`{"documents":[{"name":"a.v","text":"\ud800 é \xff"}]}`,
	`{"documents":[{"name":"esc.v","text":"k"}]}`,
	`{"documentſ":[{"name":"fold.v","text":"long s"}]}`,
	`{"documents":[{"name":"a.v","text":"x"}]`,
	``,
	`{`,
}

// checkCorpusDecode holds decodeCorpus, reading body from r, to
// json.Unmarshal on body: the same accept/reject, the same index/mode/remove/repos, and a sealed segment
// whose encoding equals BuildSegment's over the unmarshalled documents. The
// one documented difference — a second "documents" key is refused where
// Unmarshal lets the last win — is reported, not compared.
func checkCorpusDecode(t *testing.T, body []byte, r io.Reader) {
	t.Helper()
	var got CorpusRequest
	b := similarity.NewSegmentBuilder()
	err := decodeCorpus(r, &got, b.Add)
	if errors.Is(err, errDuplicateDocuments) {
		return
	}
	var want CorpusRequest
	refErr := json.Unmarshal(body, &want)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: decodeCorpus err = %v, json.Unmarshal err = %v", body, err, refErr)
	}
	if err != nil {
		return
	}
	if len(got.Documents) != 0 {
		t.Fatalf("%q: decodeCorpus filled Documents", body)
	}
	if got.Index != want.Index || got.Mode != want.Mode || !reflect.DeepEqual(got.Remove, want.Remove) || !reflect.DeepEqual(got.Repos, want.Repos) {
		t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", body, got, want)
	}
	var names, texts []string
	for _, d := range want.Documents {
		names, texts = append(names, d.Name), append(texts, d.Text)
	}
	if b.Len() != len(names) {
		t.Fatalf("%q: streamed %d documents, json.Unmarshal holds %d", body, b.Len(), len(names))
	}
	if !reflect.DeepEqual(b.Seal().EncodeSections(), similarity.BuildSegment(names, texts, 1).EncodeSections()) {
		t.Fatalf("%q: the streamed segment is not BuildSegment's", body)
	}
}

func TestDecodeCorpusAgainstUnmarshal(t *testing.T) {
	for _, tc := range corpusBodyCases {
		checkCorpusDecode(t, []byte(tc), iotest.OneByteReader(strings.NewReader(tc)))
	}
	// Agreeing with json.Unmarshal is not enough where both could be wrong
	// together: what each shape must come to, spelled out.
	for _, tc := range []struct {
		name, body string
		accept     bool
		mode       string
		docs       int
	}{
		{"documents before mode", `{"documents":[{"name":"a.v","text":"x"}],"mode":"delta"}`, true, "delta", 1},
		{"mode before documents", `{"mode":"delta","documents":[{"name":"a.v","text":"x"}],"index":"all"}`, true, "delta", 1},
		{"keys in any case", `{"MODE":"append","Documents":[{"NAME":"a.v","Text":"wire w;"}]}`, true, "append", 1},
		{"documents null", `{"documents":null,"mode":"delta","remove":["a.v"]}`, true, "delta", 0},
		{"unknown keys skipped", `{"documents":[],"future":{"nested":[1,2]},"mode":"replace"}`, true, "replace", 0},
		{"a null document is an empty one", `{"documents":[null,{"name":"n"}]}`, true, "", 2},
		{"bytes after the closing brace", `{"documents":[{"name":"a.v","text":"x"}]} trailing`, false, "", 1},
		{"a second documents key", `{"documents":[{"name":"a.v","text":"x"}],"documents":[{"name":"b.v","text":"y"}]}`, false, "", 1},
		{"a second documents key, null", `{"documents":[{"name":"a.v","text":"x"}],"documents":null}`, false, "", 1},
		{"a second documents key, another case", `{"documents":[],"DOCUMENTS":[{"name":"b.v","text":"y"}]}`, false, "", 0},
	} {
		var req CorpusRequest
		docs := 0
		err := decodeCorpus(strings.NewReader(tc.body), &req, func(string, string) { docs++ })
		if (err == nil) != tc.accept || req.Mode != tc.mode || docs != tc.docs {
			t.Errorf("%s: err %v, mode %q, %d documents streamed; want accept=%v, mode %q, %d documents", tc.name, err, req.Mode, docs, tc.accept, tc.mode, tc.docs)
		}
	}
}

// plainRun stops where a byte-by-byte scan stops, whatever the bytes around
// the first one a JSON string does not hold as itself: every byte value at
// every offset of a word and of its tail, then plain or special bytes.
func TestPlainRun(t *testing.T) {
	ref := func(b []byte) int {
		for i, c := range b {
			if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
				return i
			}
		}
		return len(b)
	}
	for c := 0; c < 256; c++ {
		for at := 0; at < 19; at++ {
			for _, after := range []byte{'a', 0, 0x1f, 0x20, 0x7f, 0x80, 0xff, '"', '\\'} {
				b := bytes.Repeat([]byte{'a'}, 19)
				b[at] = byte(c)
				for k := at + 1; k < len(b); k++ {
					b[k] = after
				}
				if got, want := plainRun(b, 0), ref(b); got != want {
					t.Fatalf("byte %#x at %d, then %#x: plainRun = %d, want %d", c, at, after, got, want)
				}
			}
		}
	}
}

// FuzzDecodeCorpus: whatever the body, and however its reads fragment it,
// the streaming decoder and json.Unmarshal agree (see checkCorpusDecode).
func FuzzDecodeCorpus(f *testing.F) {
	for _, tc := range corpusBodyCases {
		f.Add([]byte(tc), []byte{0})
	}
	f.Fuzz(func(t *testing.T, body, sizes []byte) { checkCorpusDecode(t, body, fragmented(body, sizes)) })
}

// chunks hands a body over in reads whose sizes cycle through sizes; with
// none, in one read.
type chunks struct {
	body  []byte
	sizes []int
	k     int
}

func (c *chunks) Read(p []byte) (int, error) {
	if len(c.body) == 0 {
		return 0, io.EOF
	}
	n := len(c.body)
	if len(c.sizes) > 0 {
		n = min(n, c.sizes[c.k%len(c.sizes)])
		c.k++
	}
	n = copy(p, c.body[:n])
	c.body = c.body[n:]
	return n, nil
}

// fragmented reads body in sizes of 1 to 64 bytes drawn from a fuzz input,
// so the decoders cross their buffer refills wherever the fuzzer puts them.
func fragmented(body, sizes []byte) io.Reader {
	c := &chunks{body: body}
	for _, n := range sizes {
		c.sizes = append(c.sizes, 1+int(n)%64)
	}
	return c
}

// ndjsonBodyCases seed FuzzDecodeNDJSON: one record per line, then the
// shapes TestDecodeNDJSONReadsAStream pins.
var ndjsonBodyCases = []string{
	`{"name":"a.v","text":"module a; endmodule"}` + "\n" + `{"remove":"z.v"}` + "\n",
	`{"repo":{"name":"acme/ip","spdx":"MIT","files":[{"path":"a.v","content":"module a; endmodule"}]}}` + "\n" + `{"NAME":"b.v","Text":"wire w;"}`,
	"\n \t\r\n" + `{"name":"","text":"x","remove":"","repo":null}` + "\n\n",
	`{"name":"a.v","text":"x","remove":"r.v"}` + "\n" + `{"text":"no name"}`,
	`{}`,
	`null`,
	`{"name":1}`,
	`["a.v"]`,
	`{"name":"a.v","text":"x"} {"remove":"b.v"}`,
	`{"name":"a.v","text":"x"}{"name":"c.v","text":"y"}`,
	`{"name":"a.v",` + "\n" + `"text":"x"}`,
	`{"name":"a.v","text":"x"} trailing`,
	`{"name":"a.v"`,
	``,
}

// checkNDJSONDecode holds decodeNDJSON, reading body from r, to a
// line-by-line reference — split
// the body on newlines and json.Unmarshal each non-blank line into a
// CorpusLine — on one body: the same accept/reject, the same removals and
// repos, and a sealed segment whose encoding equals BuildSegment's over the
// reference's documents. decodeNDJSON reads one json.Decoder stream, so the
// two read different records where a line holds other than exactly one JSON
// value (two values, or part of one that spans lines); such a body is
// reported, not compared — TestDecodeNDJSONReadsAStream pins what the
// server does with it.
func checkNDJSONDecode(t *testing.T, s *Server, body []byte, r io.Reader) {
	t.Helper()
	var want CorpusRequest
	var names, texts []string
	accept := true
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue
		}
		if !json.Valid(line) {
			return
		}
		var l CorpusLine
		if accept = json.Unmarshal(line, &l) == nil; !accept {
			break
		}
		switch {
		case l.Repo != nil:
			want.Repos = append(want.Repos, *l.Repo)
		case l.Remove != "":
			want.Remove = append(want.Remove, l.Remove)
		case l.Name != "" || l.Text != "":
			names, texts = append(names, l.Name), append(texts, l.Text)
		default:
			accept = false
		}
		if !accept {
			break
		}
	}
	var got CorpusRequest
	b := similarity.NewSegmentBuilder()
	w := httptest.NewRecorder()
	if ok := s.decodeNDJSON(w, httptest.NewRequest(http.MethodPost, "/v1/corpus", r), &got, b.Add); ok != accept {
		t.Fatalf("%q: decodeNDJSON accepted=%v (%s), the line-by-line reference %v", body, ok, w.Body, accept)
	}
	if !accept {
		return
	}
	if !reflect.DeepEqual(got.Remove, want.Remove) || !reflect.DeepEqual(got.Repos, want.Repos) {
		t.Fatalf("%q: decoded %+v, the reference %+v", body, got, want)
	}
	if b.Len() != len(names) {
		t.Fatalf("%q: streamed %d documents, the reference %d", body, b.Len(), len(names))
	}
	if !reflect.DeepEqual(b.Seal().EncodeSections(), similarity.BuildSegment(names, texts, 1).EncodeSections()) {
		t.Fatalf("%q: the streamed segment is not BuildSegment's", body)
	}
}

// What the server does where a stream of JSON values and a list of lines
// part: records are values wherever the newlines fall.
func TestDecodeNDJSONReadsAStream(t *testing.T) {
	s := NewServer(DefaultConfig())
	defer s.Close()
	for _, tc := range ndjsonBodyCases[:4] {
		checkNDJSONDecode(t, s, []byte(tc), iotest.OneByteReader(strings.NewReader(tc)))
	}
	for _, tc := range []struct {
		name, body    string
		code          string // "" = accepted
		docs, removes int
	}{
		{"two records on one line", `{"name":"a.v","text":"x"} {"remove":"b.v"}`, "", 1, 1},
		{"two records with nothing between", `{"name":"a.v","text":"x"}{"name":"c.v","text":"y"}`, "", 2, 0},
		{"a record spanning lines", `{"name":"a.v",` + "\n" + `"text":"x"}` + "\n", "", 1, 0},
		{"blank lines", "\n\n" + `{"remove":"a.v"}` + "\n  \r\n", "", 0, 1},
		{"a record that is none of the three", `{"name":"a.v","text":"x"}` + "\n{}", "bad_record", 1, 0},
		{"null", `null`, "bad_record", 0, 0},
		{"a line holding a record and garbage", `{"name":"a.v","text":"x"} trailing`, "bad_json", 1, 0},
		{"a record cut off", `{"name":"a.v","text":"x"}` + "\n" + `{"name":"b.v"`, "bad_json", 1, 0},
	} {
		var req CorpusRequest
		docs := 0
		w := httptest.NewRecorder()
		ok := s.decodeNDJSON(w, httptest.NewRequest(http.MethodPost, "/v1/corpus", strings.NewReader(tc.body)), &req, func(string, string) { docs++ })
		var er ErrorResponse
		json.Unmarshal(w.Body.Bytes(), &er)
		if ok != (tc.code == "") || er.Error.Code != tc.code || docs != tc.docs || len(req.Remove) != tc.removes {
			t.Errorf("%s: accepted=%v %s, %d documents, %d removals; want code %q, %d documents, %d removals",
				tc.name, ok, w.Body, docs, len(req.Remove), tc.code, tc.docs, tc.removes)
		}
	}
}

// FuzzDecodeNDJSON: whatever the body, and however its reads fragment it,
// the stream decoder and the line-by-line reference agree wherever each
// line holds one JSON value (see checkNDJSONDecode).
func FuzzDecodeNDJSON(f *testing.F) {
	for _, tc := range ndjsonBodyCases {
		f.Add([]byte(tc), []byte{0})
	}
	s := NewServer(DefaultConfig())
	defer s.Close()
	f.Fuzz(func(t *testing.T, body, sizes []byte) { checkNDJSONDecode(t, s, body, fragmented(body, sizes)) })
}

// A body many times the scanner's buffer, in either format, decodes to
// BuildSegment's segment however its reads fragment it: byte by byte, a few
// bytes, nearly a page, or all at once.
func TestDecodeAcrossRefills(t *testing.T) {
	var names, texts []string
	var req CorpusRequest
	var ndjson bytes.Buffer
	for _, pf := range corpus.BuildProtectedCorpus(3, 400) {
		names, texts = append(names, pf.Name), append(texts, pf.Source)
		req.Documents = append(req.Documents, CorpusDocument{Name: pf.Name, Text: pf.Source})
		ndjson.Write(mustJSON(t, CorpusLine{Name: pf.Name, Text: pf.Source}))
		ndjson.WriteByte('\n')
	}
	body := mustJSON(t, req)
	if len(body) < 8*bodyScanSize {
		t.Fatalf("a %d-byte body refills a %d-byte buffer too few times", len(body), bodyScanSize)
	}
	want := similarity.BuildSegment(names, texts, 1).EncodeSections()
	s := NewServer(DefaultConfig())
	defer s.Close()
	for _, rc := range []struct {
		reads  string
		reader func([]byte) io.Reader
	}{
		{"1", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"7", func(b []byte) io.Reader { return &chunks{body: b, sizes: []int{7}} }},
		{"4093", func(b []byte) io.Reader { return &chunks{body: b, sizes: []int{4093}} }},
		{"whole", func(b []byte) io.Reader { return &chunks{body: b} }},
	} {
		var got CorpusRequest
		b := similarity.NewSegmentBuilder()
		if err := decodeCorpus(rc.reader(body), &got, b.Add); err != nil {
			t.Fatalf("JSON in reads of %s: %v", rc.reads, err)
		}
		if !reflect.DeepEqual(b.Seal().EncodeSections(), want) {
			t.Fatalf("JSON in reads of %s: the streamed segment is not BuildSegment's", rc.reads)
		}
		b = similarity.NewSegmentBuilder()
		w := httptest.NewRecorder()
		if !s.decodeNDJSON(w, httptest.NewRequest(http.MethodPost, "/v1/corpus", rc.reader(ndjson.Bytes())), &got, b.Add) {
			t.Fatalf("NDJSON in reads of %s: %s", rc.reads, w.Body)
		}
		if !reflect.DeepEqual(b.Seal().EncodeSections(), want) {
			t.Fatalf("NDJSON in reads of %s: the streamed segment is not BuildSegment's", rc.reads)
		}
	}
}

// bigCorpusBody marshals n seeded random documents as one replace request.
func bigCorpusBody(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	docs := make([]CorpusDocument, n)
	for i := range docs {
		docs[i] = CorpusDocument{Name: fmt.Sprintf("big%d_%d.v", seed, i), Text: randVerilog(rng, i)}
	}
	return mustJSON(t, CorpusRequest{Documents: docs})
}

// A body refused part-way through — after thousands of its documents went
// into a builder — changes nothing that is served: same version, same
// verdicts, and the answer is the envelope the buffered decoder gave.
func TestRefusedCorpusBodyLeavesServingUntouched(t *testing.T) {
	servedNames, servedTexts := docSet(3, 12)
	queries := append(append([]string(nil), servedTexts[:4]...), "module fresh(); endmodule")
	serving := func(maxBody int64) *Server {
		cfg := DefaultConfig()
		cfg.MaxBodyBytes = maxBody
		s := NewServer(cfg)
		t.Cleanup(s.Close)
		if _, _, err := s.PublishDocuments(servedNames, servedTexts); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, roomy := serving(2<<20), serving(0) // 0: the 8 MiB default, so the whole 8 000 are read

	body := bigCorpusBody(t, 5, 8000)
	if len(body) <= 2<<20 {
		t.Fatalf("8000-document body is only %d bytes; the 413 case needs it over the cap", len(body))
	}
	small := bigCorpusBody(t, 6, 1000)
	// Break document 7 000's syntax: drop the quote that opens its name.
	mark := []byte(`{"name":"big5_7000.v"`)
	at := bytes.Index(body, mark)
	if at < 0 {
		t.Fatal("document 7000 not found in the body")
	}
	broken := append(append(append([]byte(nil), body[:at]...), `{"name":big5_7000.v"`...), body[at+len(mark):]...)

	for _, tc := range []struct {
		name   string
		s      *Server
		body   []byte
		status int
		code   string
	}{
		{"bytes after the closing brace", s, append(append([]byte(nil), small...), " {}"...), http.StatusBadRequest, "bad_json"},
		{"a second documents key", s, append(append([]byte(nil), small[:len(small)-1]...), `,"documents":[]}`...), http.StatusBadRequest, "bad_json"},
		{"over MaxBodyBytes mid-array", s, body, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"a syntax error in document 7000 of 8000", roomy, broken, http.StatusBadRequest, "bad_json"},
	} {
		code, raw := do(t, tc.s.Handler(), http.MethodPost, "/v1/corpus", "application/json", tc.body)
		var er ErrorResponse
		json.Unmarshal(raw, &er)
		if code != tc.status || er.Error.Code != tc.code {
			t.Fatalf("%s: %d %s, want %d %s", tc.name, code, raw, tc.status, tc.code)
		}
		assertServedMatchesOffline(t, tc.s, servedNames, servedTexts, queries, 1)
	}
}

// bodyBufPool must not keep the buffer of a multi-megabyte body.
func TestBodyBufPoolDropsLargeBuffers(t *testing.T) {
	big := bytes.NewBuffer(make([]byte, 0, maxPooledBody+1))
	small := bytes.NewBuffer(make([]byte, 0, maxPooledBody))
	small.WriteString("left over")
	for i := 0; i < 100; i++ { // a sync.Pool may drop what it is given, never invent it
		putBodyBuf(big)
		if got := bodyBufPool.Get().(*bytes.Buffer); got == big {
			t.Fatalf("a %d-byte buffer came back out of bodyBufPool", big.Cap())
		}
	}
	putBodyBuf(small)
	if small.Len() != 0 {
		t.Fatal("a pooled buffer was not reset")
	}
}

// One full publish — handler to durable file — allocates no more than 12.8
// bytes per byte of body (43 at the parent of the PR that streamed it, 16.1
// before the dictionaries became flat tables, 14.6 after, 13.6 before the body
// scanner replaced json.Decoder, 11.6 after): nothing on the path is as large
// as the upload or the file.
func TestFullPublishAllocBudget(t *testing.T) {
	const docs = 2000
	st, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Store = st
	cfg.DisableAutoMerge = true
	s := NewServer(cfg)
	defer s.Close()
	req := CorpusRequest{}
	for _, pf := range corpus.BuildProtectedCorpus(7, docs) {
		req.Documents = append(req.Documents, CorpusDocument{Name: pf.Name, Text: pf.Source})
	}
	body := mustJSON(t, req)
	r := httptest.NewRequest(http.MethodPost, "/v1/corpus", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h := s.Handler()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)

	var cr CorpusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil || w.Code != http.StatusOK || cr.Indexed != docs || !cr.Persisted {
		t.Fatalf("publish: %d %s", w.Code, w.Body.String())
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte body of %d documents allocated %d bytes: %.1f per byte", len(body), docs, grew, float64(grew)/float64(len(body)))
	if float64(grew) > 12.8*float64(len(body)) {
		t.Fatalf("publishing a %d-byte body allocated %d bytes, %.1f per byte; the budget is 12.8", len(body), grew, float64(grew)/float64(len(body)))
	}
}
