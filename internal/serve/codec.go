package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"freehw/internal/similarity"
)

// The wire codec: request bodies in, response envelopes out. /v1/audit and
// /v1/corpus have hand-rolled paths, and each refuses whatever it cannot
// prove it handles exactly as encoding/json does, which stays the reference
// and the fallback. /v1/audit's are parseAuditRequest and writeAuditFast
// (FuzzParseAuditRequest, FuzzWriteAuditFast). The rent they pay, measured for
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
//
// /v1/corpus's is bodyScanner: one pass over a refillable buffer that
// delimits a JSON or NDJSON upload a record at a time, decodes each
// {"name","text"} document by hand straight into the segment builder, and
// hands every other value — other keys, removals, repos, nulls, and any
// document it cannot prove it decodes identically — to json.Unmarshal over
// that value's own bytes (FuzzDecodeCorpus and FuzzDecodeNDJSON, fed in
// fragmented reads). It replaced a json.Decoder, which scanned every record
// twice, once to find it and once to decode it. Its rent, on bench/'s base
// corpus (8 000 documents, a 7.5 MB JSON body), pinned to one processor of
// a 2-vCPU VM; decode is the handler's CPU less Add, Seal and Save:
//
//	json.Decoder:  decode 21.6 % of the handler (≈ 65 MB/s; six durable
//	               publishes); BenchmarkCorpusUpload json 16.9 MB/s, ndjson
//	               16.8 (no store, medians of three rounds), 91.8 MB and
//	               134.6 k allocations a publish
//	scanner, every record json.Unmarshal'd: decode 24.7 %; json 18.7–23.4
//	               MB/s where the scanner read 23.2–31.1 in the same three
//	               rounds; 93.3 MB and 158.6 k allocations; 13.8 bytes
//	               allocated per body byte, over TestFullPublishAllocBudget
//	scanner:       decode 3.8 % (≈ 500 MB/s); json 23.1 MB/s, ndjson 21.6,
//	               76.5 MB and 110.6 k allocations; 11.6 bytes per body byte
//	over TCP:      one durable publish with curl, six alternating server
//	               starts, json.Decoder 0.55–0.72 s, scanner 0.40–0.53 s
//
// End to end the saving is smaller than setup_s's spread between runs:
// audit_resample 0.496 → 0.410 s (lower in 8 of 10 pairs), then 0.494 →
// 0.431 (7 of 10).

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

// decodeCorpus reads a JSON CorpusRequest body as json.Unmarshal would read
// it — keys in any order and matched case-insensitively, unknown keys
// skipped, null leaving a field as it was — except that the documents array
// is never held: each CorpusDocument goes to add before the next is read,
// so CorpusRequest.Documents stays empty and memory is one document, not the
// upload. add must not keep text, which may be scratch the next document
// overwrites. The other fields decode into req. A syntax error can surface
// after documents were added; the caller drops what it built.
func decodeCorpus(body io.Reader, req *CorpusRequest, add func(name, text string)) error {
	s := newBodyScanner(body)
	c, err := s.next()
	if err != nil {
		return err
	}
	if c != '{' { // null is an empty request; anything else, json's error
		raw, err := s.value()
		if err == nil {
			err = json.Unmarshal(raw, req)
		}
		if err != nil {
			return err
		}
		return s.done()
	}
	s.pos++
	if c, err = s.next(); err != nil {
		return err
	}
	for seenDocuments := false; c != '}'; {
		if c != '"' {
			return syntaxError(c, "looking for beginning of object key string")
		}
		var key string // a handful a request: json.Unmarshal reads them
		if err := s.unmarshal(&key); err != nil {
			return err
		}
		if c, err = s.next(); err != nil {
			return err
		}
		if c != ':' {
			return syntaxError(c, "after object key")
		}
		s.pos++
		if c, err = s.next(); err != nil {
			return err
		}
		switch {
		case strings.EqualFold(key, "documents"):
			if seenDocuments {
				return errDuplicateDocuments
			}
			seenDocuments = true
			err = s.documents(c, add)
		case strings.EqualFold(key, "index"):
			err = s.unmarshal(&req.Index)
		case strings.EqualFold(key, "mode"):
			err = s.unmarshal(&req.Mode)
		case strings.EqualFold(key, "remove"):
			err = s.unmarshal(&req.Remove)
		case strings.EqualFold(key, "repos"):
			err = s.unmarshal(&req.Repos)
		default:
			var raw []byte
			if raw, err = s.value(); err == nil && !json.Valid(raw) {
				err = json.Unmarshal(raw, new(json.RawMessage))
			}
		}
		if err != nil {
			return err
		}
		if c, err = s.next(); err != nil {
			return err
		}
		if c == ',' {
			s.pos++
			if c, err = s.next(); err != nil {
				return err
			}
			if c == '}' {
				return syntaxError(c, "looking for beginning of object key string")
			}
		} else if c != '}' {
			return syntaxError(c, "after object key:value pair")
		}
	}
	s.pos++
	return s.done()
}

// documents streams the value of a "documents" key, whose first byte is c:
// null, or an array of CorpusDocument (an element may itself be null — an
// empty document, as it is for json.Unmarshal).
func (s *bodyScanner) documents(c byte, add func(name, text string)) error {
	if c != '[' {
		var none []CorpusDocument
		return s.unmarshal(&none)
	}
	s.pos++
	c, err := s.next()
	if err != nil {
		return err
	}
	if c == ']' {
		s.pos++
		return nil
	}
	var d CorpusDocument
	for {
		d = CorpusDocument{}
		hand, err := s.record(&d)
		if err != nil {
			return err
		}
		if hand {
			add(string(s.docName), bstr(s.docText))
		} else {
			add(d.Name, d.Text)
		}
		if c, err = s.next(); err != nil {
			return err
		}
		s.pos++
		switch c {
		case ',':
			if _, err = s.next(); err != nil {
				return err
			}
		case ']':
			return nil
		default:
			return syntaxError(c, "after array element")
		}
	}
}

// decodeNDJSON reads a streaming newline-delimited corpus upload: each line
// is one CorpusLine, decoded incrementally under the body-size cap — a
// document goes straight to add (which must not keep text, as for
// decodeCorpus), a removal or a repo into req; index and publish modes come
// from the ?index= and ?mode= query parameters. It replies on failure and
// reports whether the handler should continue. Records are read as one
// stream of JSON values, not split on newlines, so a line may hold two
// records and a record may span lines; blank lines are skipped, and the
// number an error names counts records, not lines.
func (s *Server) decodeNDJSON(w http.ResponseWriter, r *http.Request, req *CorpusRequest, add func(name, text string)) bool {
	sc := newBodyScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var l CorpusLine
	for n := 1; ; n++ {
		more, err := sc.more()
		hand := false
		l = CorpusLine{} // what a hand-decoded record leaves it
		if more {
			hand, err = sc.record(&l)
		}
		if err != nil {
			writeBodyErr(w, "bad NDJSON record "+strconv.Itoa(n), err)
			return false
		}
		switch {
		case !more:
			return true
		case hand && (len(sc.docName) > 0 || len(sc.docText) > 0):
			add(string(sc.docName), bstr(sc.docText))
		case l.Repo != nil:
			req.Repos = append(req.Repos, *l.Repo)
		case l.Remove != "":
			req.Remove = append(req.Remove, l.Remove)
		case l.Name != "" || l.Text != "":
			add(l.Name, l.Text)
		default:
			writeErr(w, http.StatusBadRequest, "bad_record", "NDJSON record "+strconv.Itoa(n)+" has neither document fields, a removal, nor a repo")
			return false
		}
	}
}

// bodyScanner reads a corpus upload through a refillable buffer; the unread
// bytes are buf[pos:end]. A unit it cannot finish in what is buffered — a
// document record, a delimited value — is parsed again from its first byte
// once fill has read more, so the buffer holds one unit, never the body.
type bodyScanner struct {
	r        io.Reader
	rerr     error // what ended the reads: io.EOF at the end of the body
	buf      []byte
	pos, end int

	// The {"name","text"} record document decoded last: views of buf, or
	// of the unescape scratch name and text.
	docName, docText []byte
	name, text       []byte
}

// bodyScanSize is a scanner's first buffer: room for dozens of bench/'s
// ≈ 1 KB records, grown only for a unit of more than half of it.
const bodyScanSize = 32 << 10

func newBodyScanner(r io.Reader) *bodyScanner {
	return &bodyScanner{r: r, buf: make([]byte, bodyScanSize)}
}

// What document and jsonStr return instead of a length: the buffer ended
// inside the unit, or the unit is one the hand decoder leaves to encoding/json.
const (
	short = -1
	bail  = -2
)

// fill moves the unread bytes to the front of the buffer, doubling it when
// they fill more than half, then reads at least as many bytes as it kept
// (one read at the least), so a unit parsed again from its start is never
// parsed more than twice over per byte read. It reports whether it read
// anything; rerr says why not.
func (s *bodyScanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	kept := copy(s.buf, s.buf[s.pos:s.end])
	s.pos, s.end = 0, kept
	if 2*kept > len(s.buf) {
		s.buf = append(s.buf, make([]byte, len(s.buf))...)
	}
	for s.rerr == nil && s.end < len(s.buf) && (s.end == kept || s.end < 2*kept) {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		s.rerr = err
	}
	return s.end > kept
}

// more skips whitespace and reports whether a byte follows it; false with
// a nil error is the end of the body.
func (s *bodyScanner) more() (bool, error) {
	for {
		for ; s.pos < s.end; s.pos++ {
			if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return true, nil
			}
		}
		if !s.fill() {
			if s.rerr == io.EOF {
				return false, nil
			}
			return false, s.rerr
		}
	}
}

// next skips whitespace and returns the byte after it, which a value or
// punctuation must be.
func (s *bodyScanner) next() (byte, error) {
	more, err := s.more()
	if !more && err == nil {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return 0, err
	}
	return s.buf[s.pos], nil
}

// done checks that only whitespace follows the top-level value.
func (s *bodyScanner) done() error {
	more, err := s.more()
	if more {
		return syntaxError(s.buf[s.pos], "after top-level value")
	}
	return err
}

// value delimits the JSON value at pos and consumes it. What it returns
// views the buffer and holds until the next read; it is well-formed only
// if json.Unmarshal or json.Valid says so.
func (s *bodyScanner) value() ([]byte, error) {
	for {
		if n := skipValue(s.buf[s.pos:s.end], s.rerr == io.EOF); n >= 0 {
			s.pos += n
			return s.buf[s.pos-n : s.pos], nil
		}
		if !s.fill() {
			if s.rerr == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, s.rerr
		}
	}
}

// unmarshal decodes the value at pos into v.
func (s *bodyScanner) unmarshal(v any) error {
	raw, err := s.value()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// record reads the record at pos: by hand when document can (hand is true
// and docName and docText hold it), else by json.Unmarshal of its delimited
// bytes into v.
func (s *bodyScanner) record(v any) (hand bool, err error) {
	for s.buf[s.pos] == '{' {
		if n := s.document(s.buf[s.pos:s.end]); n >= 0 {
			s.pos += n
			return true, nil
		} else if n == bail || !s.fill() {
			break
		}
	}
	return false, s.unmarshal(v)
}

// document decodes the object at b[0] by hand when its keys are only
// "name" and "text", spelled so, each a string jsonStr takes; a repeated
// key wins last, as in json.Unmarshal. It returns the bytes the object
// spans, with docName and docText set (empty when absent), or short or
// bail; short when nothing more can be read leaves the record to
// encoding/json too, so every error is json's.
func (s *bodyScanner) document(b []byte) int {
	s.docName, s.docText = nil, nil
	i := skipJSONSpace(b, 1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i+6 > len(b) {
			return short
		}
		var dst *[]byte
		switch string(b[i : i+6]) {
		case `"name"`:
			dst = &s.name
		case `"text"`:
			dst = &s.text
		default:
			return bail
		}
		if i = skipJSONSpace(b, i+6); i >= len(b) {
			return short
		}
		if b[i] != ':' {
			return bail
		}
		if i = skipJSONSpace(b, i+1); i >= len(b) {
			return short
		}
		v, j := jsonStr(b, i, dst)
		if j < 0 {
			return j
		}
		if dst == &s.name {
			s.docName = v
		} else {
			s.docText = v
		}
		if i = skipJSONSpace(b, j); i >= len(b) {
			return short
		}
		switch b[i] {
		case ',':
			i = skipJSONSpace(b, i+1)
		case '}':
			return i + 1
		default:
			return bail
		}
	}
}

// plainRun returns the index of the first byte from b[i] on that a JSON
// string does not hold as itself — a quote, a backslash, a control byte or
// non-ASCII — or len(b). Eight bytes at a time: a byte's flag is its high
// bit after subtracting 0x20 (0x01 where it is XORed with the quote or the
// backslash), or its own high bit. A borrow only carries into a later byte,
// so the first flag is exact.
//
//freehw:hotpath
func plainRun(b []byte, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		q, bs := x^(ones*'"'), x^(ones*'\\')
		if m := ((x-ones*0x20)&^x | (q-ones)&^q | (bs-ones)&^bs | x) & highs; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			break
		}
	}
	return i
}

// jsonStr decodes the JSON string whose opening quote is at b[i] as
// json.Unmarshal would, when it holds only printable ASCII, valid UTF-8
// (kept verbatim, as json keeps it) and escapes other than surrogates. It
// returns bail for anything else — no quote at b[i], a control byte,
// invalid UTF-8, a surrogate, a bad escape — and short when b ends first.
// A string without escapes is returned as a view of b; one with escapes is
// unescaped into *scratch. The int is the index after the closing quote.
//
//freehw:hotpath
func jsonStr(b []byte, i int, scratch *[]byte) ([]byte, int) {
	if i >= len(b) {
		return nil, short
	}
	if b[i] != '"' {
		return nil, bail
	}
	i++
	start, out, escaped := i, (*scratch)[:0], false
	for {
		if i = plainRun(b, i); i >= len(b) {
			return nil, short
		}
		switch c := b[i]; {
		case c == '"':
			if !escaped {
				return b[start:i], i + 1
			}
			out = append(out, b[start:i]...)
			*scratch = out
			return out, i + 1
		case c == '\\':
			if i+1 >= len(b) {
				return nil, short
			}
			if cap(out) == 0 { // the string's end bounds what it unescapes to: allocate once
				out = make([]byte, 0, len(b)-start)
			}
			out, escaped = append(out, b[start:i]...), true
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				if i+6 > len(b) {
					return nil, short
				}
				r := rune(0)
				for _, h := range b[i+2 : i+6] {
					switch {
					case h >= '0' && h <= '9':
						h -= '0'
					case h >= 'a' && h <= 'f':
						h -= 'a' - 10
					case h >= 'A' && h <= 'F':
						h -= 'A' - 10
					default:
						return nil, bail
					}
					r = r<<4 | rune(h)
				}
				if r >= 0xD800 && r < 0xE000 { // a surrogate: json pairs or replaces it
					return nil, bail
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return nil, bail
			}
			i += 2
			start = i
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				if !utf8.FullRune(b[i:]) {
					return nil, short
				}
				return nil, bail
			}
			i += size
		default: // a control byte: json's error
			return nil, bail
		}
	}
}

// skipValue returns the length of the JSON value at b[0], or short when b
// ends inside it (eof: nothing follows b, so a number or literal ends with
// it). It delimits without validating — brackets are only counted — so what
// it delimits must go to json.Unmarshal or json.Valid; where the value is
// well-formed it ends where json's scanner ends it, and where it is not,
// the bytes delimited are not well-formed either.
func skipValue(b []byte, eof bool) int {
	switch c := b[0]; {
	case c == '"':
		for i := 1; i < len(b); i++ {
			switch b[i] {
			case '"':
				return i + 1
			case '\\':
				i++
			}
		}
	case c == '{' || c == '[':
		depth := 0
		for i := 0; i < len(b); i++ {
			switch b[i] {
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			case '"':
				n := skipValue(b[i:], eof)
				if n < 0 {
					return short
				}
				i += n - 1
			}
		}
	case c == 't' || c == 'f' || c == 'n':
		lit := "null"
		if c == 't' {
			lit = "true"
		} else if c == 'f' {
			lit = "false"
		}
		k := 1
		for k < len(lit) && k < len(b) && b[k] == lit[k] {
			k++
		}
		switch {
		case k == len(lit):
			return k
		case k < len(b):
			return k + 1 // through the byte that breaks the literal
		case eof:
			return k
		}
	case c == '-' || c >= '0' && c <= '9':
		i := 1
		for i < len(b) && (b[i] >= '0' && b[i] <= '9' || b[i] == '.' || b[i] == 'e' || b[i] == 'E' || b[i] == '+' || b[i] == '-') {
			i++
		}
		if i < len(b) || eof {
			return i
		}
	default:
		return 1
	}
	return short
}

// syntaxError words an error as encoding/json's scanner does.
func syntaxError(c byte, context string) error {
	return errors.New("invalid character " + strconv.QuoteRune(rune(c)) + " " + context)
}

// bstr views b as a string: for a callee that does not keep it, or over
// bytes nothing will write again.
//
//freehw:hotpath
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

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

// parseJSONString decodes the JSON string at b[i] into a string of its own
// where jsonStr takes it, and reports !ok where jsonStr does not or b ends
// first, so the encoding/json fallback, with its UTF-8 coercion and exact
// error text, handles it instead.
//
//freehw:hotpath
func parseJSONString(b []byte, i int) (s string, next int, ok bool) {
	var fresh []byte
	v, j := jsonStr(b, i, &fresh)
	if j < 0 {
		return "", 0, false
	}
	if cap(fresh) > 0 { // unescaped into a buffer nothing else holds
		return bstr(v), j, true
	}
	return string(v), j, true
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

// retryAfterSeconds derives the shed backoff hint from the pressure on
// sem, the semaphore that refused: one second plus one per quarter of its
// slots in use. The ramp is deliberately coarse, because the hint's job
// is spreading retries, not forecasting latency.
func retryAfterSeconds(sem chan struct{}) int {
	return 1 + 4*len(sem)/cap(sem)
}

// writeShed emits the 429 envelope with sem's Retry-After hint in both the
// conventional header and the machine-readable body, so clients that only
// parse JSON still see the backoff.
func (s *Server) writeShed(w http.ResponseWriter, sem chan struct{}, code, msg string) {
	s.m.rejected.Add(1)
	secs := retryAfterSeconds(sem)
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
