package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"freehw/internal/similarity"
)

// The wire codec: request bodies in, response envelopes out. Only /v1/audit
// has hand-rolled paths — parseAuditRequest and writeAuditFast — and both
// refuse whatever they cannot prove they handle exactly as encoding/json
// does, which stays the reference and the fallback (FuzzParseAuditRequest
// and FuzzWriteAuditFast hold them to it). The rent they pay, measured for
// ISSUE 18 by `go run ./bench` on scratch copies with a path forced to the
// fallback, in alternating pairs against the parent (34 runs, every output
// check passing, `failed` 0):
//
//	fallback only: audit_resample audits_per_s 22 395 → 18 183, −19 % (5/5
//	               pairs, seeds 501–505); audit_p50_ms 0.0697 → 0.0802
//	parser only:   21 251 → 18 572, −13 % (4/4, seeds 601–604)
//	encoder only:  22 575 → 20 427, −9.5 % (9/10, seeds 601–610)
//	in process:    BenchmarkServeAudit 6.2–7.4 → 9.1–9.7 µs, 24 → 30 allocs
//
// which retires ROADMAP's prediction that deleting them would move the
// request "< 5 %".

// bodyBufPool recycles body read buffers across requests: a fresh
// json.Decoder per request allocates its own bufio layer and scratch,
// which the audit hot path would pay on every call.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer bodyBufPool takes back: a buffer keeps
// what its largest body grew it to, so uncapped, one 7 MB /v1/filter body
// parks 8–16 MB in the pool for as long as traffic keeps it warm.
const maxPooledBody = 1 << 20

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBufPool.Put(buf)
	}
}

// decode reads a POSTed JSON body under the configured size cap. It replies
// on failure and reports whether the handler should continue. The body is
// slurped into a pooled buffer and unmarshalled from there — same syntax
// errors, no per-request decoder allocations (json.Unmarshal copies what
// it keeps, so nothing aliases the pooled bytes).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, out any) bool {
	if !allow(w, r, http.MethodPost) {
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeBodyErr(w, "bad request", err)
		return false
	}
	if ar, ok := out.(*AuditRequest); ok && parseAuditRequest(buf.Bytes(), ar) {
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		writeBodyErr(w, "bad request", err)
		return false
	}
	return true
}

// writeBodyErr answers a body that could not be read (over the size cap,
// or a transport error) or parsed; what says which body.
func writeBodyErr(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large", "request body too large")
		return
	}
	writeErr(w, http.StatusBadRequest, "bad_json", what+": "+err.Error())
}

// errDuplicateDocuments refuses a second "documents" key: the first one's are
// already in the segment builder, so the last cannot win as in json.Unmarshal.
var errDuplicateDocuments = errors.New(`a second "documents" key`)

// decodeCorpus walks a JSON CorpusRequest body as json.Unmarshal would read
// it — keys in any order and matched case-insensitively, unknown keys
// skipped, null leaving a field as it was — except that the documents array
// is never held: each CorpusDocument is decoded and handed to add before the
// next is read, so CorpusRequest.Documents stays empty and memory is one
// document, not the upload. The other fields decode into req. A syntax error
// can surface after documents were added; the caller drops what it built.
func decodeCorpus(body io.Reader, req *CorpusRequest, add func(name, text string)) error {
	dec := json.NewDecoder(body)
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == json.Delim('{') {
		seenDocuments := false
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				return err
			}
			switch k, _ := key.(string); {
			case strings.EqualFold(k, "documents"):
				if seenDocuments {
					return errDuplicateDocuments
				}
				seenDocuments = true
				err = decodeDocuments(dec, add)
			case strings.EqualFold(k, "index"):
				err = dec.Decode(&req.Index)
			case strings.EqualFold(k, "mode"):
				err = dec.Decode(&req.Mode)
			case strings.EqualFold(k, "remove"):
				err = dec.Decode(&req.Remove)
			case strings.EqualFold(k, "repos"):
				err = dec.Decode(&req.Repos)
			default:
				var skipped json.RawMessage
				err = dec.Decode(&skipped)
			}
			if err != nil {
				return err
			}
		}
		if _, err := dec.Token(); err != nil { // the closing brace
			return err
		}
	} else if tok != nil { // a top-level null is an empty request
		return errors.New("json: cannot unmarshal a non-object into Go value of type serve.CorpusRequest")
	}
	if _, err = dec.Token(); err == nil {
		err = errors.New("invalid character after top-level value")
	} else if err == io.EOF {
		err = nil
	}
	return err
}

// decodeDocuments streams the value of a "documents" key: null, or an array
// of CorpusDocument (an element may itself be null — an empty document, as
// it is for json.Unmarshal).
func decodeDocuments(dec *json.Decoder, add func(name, text string)) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('[') {
		return errors.New("json: cannot unmarshal a non-array into Go struct field CorpusRequest.documents")
	}
	for dec.More() {
		var d CorpusDocument
		if err := dec.Decode(&d); err != nil {
			return err
		}
		add(d.Name, d.Text)
	}
	_, err = dec.Token() // the closing bracket
	return err
}

// decodeNDJSON reads a streaming newline-delimited corpus upload: each line
// is one CorpusLine, decoded incrementally under the body-size cap — a
// document goes straight to add, a removal or a repo into req; index and
// publish modes come from the ?index= and ?mode= query parameters. It
// replies on failure and reports whether the handler should continue.
// Records are read as one stream of JSON values, not split on newlines, so
// a line may hold two records and a record may span lines; blank lines are
// skipped, and the number an error names counts records, not lines.
func (s *Server) decodeNDJSON(w http.ResponseWriter, r *http.Request, req *CorpusRequest, add func(name, text string)) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	for line := 1; ; line++ {
		var l CorpusLine
		err := dec.Decode(&l)
		if err == io.EOF {
			return true
		}
		if err != nil {
			writeBodyErr(w, "bad NDJSON record "+strconv.Itoa(line), err)
			return false
		}
		switch {
		case l.Repo != nil:
			req.Repos = append(req.Repos, *l.Repo)
		case l.Remove != "":
			req.Remove = append(req.Remove, l.Remove)
		case l.Name != "" || l.Text != "":
			add(l.Name, l.Text)
		default:
			writeErr(w, http.StatusBadRequest, "bad_record", "NDJSON record "+strconv.Itoa(line)+" has neither document fields, a removal, nor a repo")
			return false
		}
	}
}

// parseAuditRequest decodes the canonical audit body shape —
// {"code": "...", "top_k": n, "threshold": x} — without reflection.
// It reports false on ANY input it cannot prove it decodes exactly as
// encoding/json would (unknown keys, non-ASCII bytes, surrogate escapes,
// exotic numbers), and the caller falls back to json.Unmarshal, so
// behavior — including every error message — is unchanged; the fast path
// only accelerates the overwhelmingly common well-formed case.
//
//freehw:hotpath
func parseAuditRequest(b []byte, out *AuditRequest) bool {
	i, n := skipJSONSpace(b, 0), len(b)
	if i >= n || b[i] != '{' {
		return false
	}
	i = skipJSONSpace(b, i+1)
	if i < n && b[i] == '}' {
		i++
	} else {
		for {
			key, j, ok := parseJSONString(b, i)
			if !ok {
				return false
			}
			i = skipJSONSpace(b, j)
			if i >= n || b[i] != ':' {
				return false
			}
			i = skipJSONSpace(b, i+1)
			switch key {
			case "code":
				s, j, ok := parseJSONString(b, i)
				if !ok {
					return false
				}
				out.Code, i = s, j
			case "top_k":
				v, j, ok := parseJSONInt(b, i)
				if !ok {
					return false
				}
				out.TopK, i = v, j
			case "threshold":
				v, j, ok := parseJSONFloat(b, i)
				if !ok {
					return false
				}
				out.Threshold, i = v, j
			default:
				// Unknown key: json.Unmarshal would skip it; let it.
				return false
			}
			i = skipJSONSpace(b, i)
			if i < n && b[i] == ',' {
				i = skipJSONSpace(b, i+1)
				continue
			}
			if i < n && b[i] == '}' {
				i++
				break
			}
			return false
		}
	}
	return skipJSONSpace(b, i) == n
}

//freehw:hotpath
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseJSONString decodes a quoted JSON string starting at b[i]. The fast
// path is restricted to printable ASCII plus the simple escapes and
// non-surrogate \uXXXX — anything else (raw control bytes, non-ASCII,
// invalid escapes) reports !ok so the encoding/json fallback, with its
// UTF-8 coercion and exact error text, handles it instead.
//
//freehw:hotpath
func parseJSONString(b []byte, i int) (s string, next int, ok bool) {
	n := len(b)
	if i >= n || b[i] != '"' {
		return "", 0, false
	}
	i++
	start := i
	for i < n {
		c := b[i]
		if c == '"' {
			return string(b[start:i]), i + 1, true
		}
		if c == '\\' {
			break // escape: switch to the building scan below
		}
		if c < 0x20 || c >= 0x80 {
			return "", 0, false
		}
		i++
	}
	if i == n {
		return "", 0, false // unterminated: json.Unmarshal words the error
	}
	// Escaped string: decode by copying the plain spans between escapes
	// into a Builder sized once — the result string is built in place,
	// so a 2 KB candidate costs one allocation, not an unquote buffer
	// plus a string copy.
	var sb strings.Builder
	sb.Grow(n - start - 1)
	sb.Write(b[start:i])
	for i < n {
		c := b[i]
		switch {
		case c == '"':
			return sb.String(), i + 1, true
		case c == '\\':
			if i+1 >= n {
				return "", 0, false
			}
			i++
			switch b[i] {
			case '"', '\\', '/':
				sb.WriteByte(b[i])
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'n':
				sb.WriteByte('\n')
			case 'r':
				sb.WriteByte('\r')
			case 't':
				sb.WriteByte('\t')
			case 'u':
				if i+4 >= n {
					return "", 0, false
				}
				r := rune(0)
				for k := 1; k <= 4; k++ {
					r <<= 4
					switch c := b[i+k]; {
					case c >= '0' && c <= '9':
						r |= rune(c - '0')
					case c >= 'a' && c <= 'f':
						r |= rune(c-'a') + 10
					case c >= 'A' && c <= 'F':
						r |= rune(c-'A') + 10
					default:
						return "", 0, false
					}
				}
				if r >= 0xD800 && r < 0xE000 {
					return "", 0, false // surrogate: fall back
				}
				var rb [4]byte
				sb.Write(rb[:utf8.EncodeRune(rb[:], r)])
				i += 4
			default:
				return "", 0, false
			}
			i++
		case c < 0x20 || c >= 0x80:
			return "", 0, false
		default:
			span := i
			for span < n {
				c := b[span]
				if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
					break
				}
				span++
			}
			sb.Write(b[i:span])
			i = span
		}
	}
	return "", 0, false
}

// parseJSONInt accepts plain decimal integers only; fractions, exponents,
// and overflow fall back (json's int-field errors must come from json).
//
//freehw:hotpath
func parseJSONInt(b []byte, i int) (v, next int, ok bool) {
	n, neg := len(b), false
	if i < n && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for i < n && b[i] >= '0' && b[i] <= '9' {
		d := int(b[i] - '0')
		if v > (1<<62)/10 {
			return 0, 0, false
		}
		v = v*10 + d
		i++
	}
	if i == start || (i < n && (b[i] == '.' || b[i] == 'e' || b[i] == 'E')) {
		return 0, 0, false
	}
	if b[start] == '0' && i > start+1 {
		return 0, 0, false // "01" is not a JSON number
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// parseJSONFloat scans the strict JSON number grammar — leading zeros,
// bare dots, and signed prefixes like "+1" are rejected exactly as
// encoding/json rejects them — then defers the conversion to strconv,
// the same parser encoding/json uses, bailing on range errors so their
// message comes from the fallback.
//
//freehw:hotpath
func parseJSONFloat(b []byte, i int) (v float64, next int, ok bool) {
	n, start := len(b), i
	if i < n && b[i] == '-' {
		i++
	}
	digits := func() bool {
		first := i
		for i < n && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > first
	}
	switch {
	case i < n && b[i] == '0':
		i++
	case i < n && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		return 0, 0, false
	}
	if i < n && b[i] == '.' {
		i++
		if !digits() {
			return 0, 0, false
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < n && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, 0, false
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, 0, false
	}
	return v, i, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeErr emits the uniform structured error envelope: a stable
// snake_case code plus a human-readable message.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// retryAfterSeconds derives the shed backoff hint from live queue
// pressure instead of a constant: an empty queue that shed only because
// the dispatcher was mid-batch suggests retrying in a second, a full one
// tells clients to back off harder. The ramp is deliberately coarse —
// 1s floor plus one second per quarter of queue fullness — because the
// hint's job is spreading retries, not forecasting latency.
func (s *Server) retryAfterSeconds() int {
	return 1 + 4*len(s.queue)/s.cfg.QueueDepth
}

// writeShed emits the 429 envelope with the live Retry-After hint in
// both the conventional header and the machine-readable body, so clients
// that only parse JSON still see the backoff.
func (s *Server) writeShed(w http.ResponseWriter, code, msg string) {
	s.m.rejected.Add(1)
	secs := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests,
		ErrorResponse{Error: ErrorDetail{Code: code, Message: msg, RetryAfterSeconds: secs}})
}

// respBufPool recycles the hand-encoded audit response buffers.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeAuditFast emits the AuditResponse wire bytes without reflection.
// The output is byte-identical to writeJSON's — same field order, the
// stdlib's float formatting, the trailing newline Encoder appends — and
// any value the hand encoder cannot prove it renders identically (names
// needing escaping, non-finite floats) reports false so the caller falls
// back to encoding/json.
//
//freehw:hotpath
func writeAuditFast(w http.ResponseWriter, res *auditResult, threshold float64, violation, cached bool) bool {
	if res.best.Index >= 0 && (!jsonPlainASCII(res.best.Name) || !finite(res.best.Score)) {
		return false
	}
	if !finite(threshold) {
		return false
	}
	for i := range res.matches {
		if !jsonPlainASCII(res.matches[i].Name) || !finite(res.matches[i].Score) {
			return false
		}
	}
	bp := respBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, '{')
	if res.best.Index >= 0 {
		b = append(b, `"best":`...)
		b = appendAuditMatch(b, &res.best)
		b = append(b, ',')
	}
	if len(res.matches) > 0 {
		b = append(b, `"matches":[`...)
		for i := range res.matches {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAuditMatch(b, &res.matches[i])
		}
		b = append(b, `],`...)
	}
	b = append(b, `"violation":`...)
	b = strconv.AppendBool(b, violation)
	b = append(b, `,"threshold":`...)
	b = appendJSONFloat(b, threshold)
	b = append(b, `,"corpus_version":`...)
	b = strconv.AppendUint(b, res.version, 10)
	b = append(b, `,"corpus_len":`...)
	b = strconv.AppendInt(b, int64(res.length), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if res.best.Index < 0 {
		b = append(b, `,"no_match":true`...)
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b[:0]
	respBufPool.Put(bp)
	return true
}

//freehw:hotpath
func appendAuditMatch(b []byte, m *similarity.Match) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, m.Name...)
	b = append(b, `","index":`...)
	b = strconv.AppendInt(b, int64(m.Index), 10)
	b = append(b, `,"score":`...)
	b = appendJSONFloat(b, m.Score)
	return append(b, '}')
}

// jsonPlainASCII reports whether s renders into a JSON string verbatim:
// printable ASCII with nothing encoding/json escapes (quotes, backslash,
// or its HTML-safe set <, >, &).
//
//freehw:hotpath
func jsonPlainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

//freehw:hotpath
func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendJSONFloat formats exactly as encoding/json's floatEncoder does:
// shortest round-trip form, 'f' in the human range, 'e' outside it with
// the two-digit exponent squeezed ("e-09" → "e-9").
//
//freehw:hotpath
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
