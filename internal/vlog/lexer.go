package vlog

import (
	"fmt"
	"sort"
	"strings"
)

// SyntaxError describes a lexical or parse error with its source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer tokenizes Verilog source text. It handles comments, a small
// preprocessor (`define of object-like macros, `ifdef/`ifndef/`else/`endif,
// and line-oriented directives such as `timescale which are skipped), and
// escaped identifiers.
//
// It is the package's only Verilog scanner. Its core, scan, returns a
// token's kind and byte span, and the lexer keeps the start of the current
// line rather than a column, so a Pos is built only when Next wraps a span
// into a Token for the parser.
type Lexer struct {
	src       string
	off       int
	line      int               // 1-based line of off
	lineStart int               // offset of that line's first byte
	macros    map[string]string // made at the first `define
	// expanded counts the bytes macro expansions have copied, against
	// maxExpansionBytes.
	expanded int
	// ifdef stack: true means the current branch is active.
	condStack []bool
	err       *SyntaxError
}

// maxExpansionBytes bounds the bytes one file's macro expansions may copy.
// An expansion rebuilds the rest of the source around the macro body and
// tokens slice every copy, so without a bound n uses hold O(n·len) bytes
// and a macro that expands to itself never finishes. Past the bound the
// file has a lexical error.
const maxExpansionBytes = 64 << 20

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	if l.err == nil {
		l.err = &SyntaxError{Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
}

// Err returns the first lexical error encountered, if any.
func (l *Lexer) Err() error {
	if l.err == nil {
		return nil
	}
	return l.err
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.off - l.lineStart + 1} }

// newline records that the byte at offset i is a '\n'.
func (l *Lexer) newline(i int) {
	l.line++
	l.lineStart = i + 1
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	if c == '\n' {
		l.newline(l.off)
	}
	l.off++
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// isBasedDigit reports whether c may appear in a based literal's value.
func isBasedDigit(c byte) bool {
	return c == '_' || isDigit(c) || (c|0x20 >= 'a' && c|0x20 <= 'f') || isXZ(c)
}

// skipIdent returns the end of the identifier characters from offset i.
func skipIdent(src string, i int) int {
	for i < len(src) && isIdentPart(src[i]) {
		i++
	}
	return i
}

// skipDigits returns the end of the decimal digits and underscores from i.
func skipDigits(src string, i int) int {
	for i < len(src) && (isDigit(src[i]) || src[i] == '_') {
		i++
	}
	return i
}

// skipSpaceAndComments consumes whitespace, comments, and preprocessor
// directives, returning when the next token starts or input ends. A NUL
// byte ends it, as it ends a line comment: it then lexes as an error.
func (l *Lexer) skipSpaceAndComments() {
	src, i := l.src, l.off
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
			continue
		case c == '\n':
			l.newline(i)
			i++
			continue
		case c != 0 && c != '`' && c != '/':
		case c == 0:
			l.off = i
			return
		case c == '`':
			l.off = i
			l.directive()
			src, i = l.src, l.off
			continue
		case i+1 < len(src) && src[i+1] == '/':
			for i += 2; i < len(src) && src[i] != '\n' && src[i] != 0; i++ {
			}
			continue
		case i+1 < len(src) && src[i+1] == '*':
			p := Pos{Line: l.line, Col: i - l.lineStart + 1}
			for i += 2; i < len(src) && src[i] != 0; i++ {
				if src[i] == '\n' {
					l.newline(i)
				} else if src[i] == '*' && i+1 < len(src) && src[i+1] == '/' {
					break
				}
			}
			if i >= len(src) || src[i] == 0 {
				l.off = i
				l.errorf(p, "unterminated block comment")
				return
			}
			i += 2
			continue
		}
		if len(l.condStack) == 0 || !l.suppressed() {
			break
		}
		i++ // inside a false `ifdef branch: consume one raw char
	}
	l.off = i
}

// suppressed reports whether the lexer is inside an inactive `ifdef branch.
func (l *Lexer) suppressed() bool {
	for _, active := range l.condStack {
		if !active {
			return true
		}
	}
	return false
}

// directive handles a `-prefixed preprocessor directive or macro use.
func (l *Lexer) directive() {
	p := l.pos()
	l.advance() // consume `
	start := l.off
	l.off = skipIdent(l.src, start)
	name := l.src[start:l.off]
	switch name {
	case "define":
		rest := l.restOfLine()
		if l.suppressed() {
			return
		}
		fields := strings.SplitN(strings.TrimSpace(rest), " ", 2)
		if len(fields) == 0 || fields[0] == "" {
			l.errorf(p, "`define requires a macro name")
			return
		}
		macro := fields[0]
		if i := strings.IndexByte(macro, '('); i >= 0 {
			// Function-like macros are not supported; reject the file.
			l.errorf(p, "function-like `define %s is not supported", macro[:i])
			return
		}
		body := ""
		if len(fields) == 2 {
			body = strings.TrimSpace(fields[1])
		}
		if l.macros == nil {
			l.macros = map[string]string{}
		}
		l.macros[macro] = body
	case "undef":
		rest := strings.TrimSpace(l.restOfLine())
		if !l.suppressed() {
			delete(l.macros, rest)
		}
	case "ifdef", "ifndef":
		rest := strings.TrimSpace(l.restOfLine())
		_, defined := l.macros[rest]
		if name == "ifndef" {
			defined = !defined
		}
		l.condStack = append(l.condStack, defined)
	case "else":
		l.restOfLine()
		if n := len(l.condStack); n > 0 {
			l.condStack[n-1] = !l.condStack[n-1]
		} else {
			l.errorf(p, "`else without `ifdef")
		}
	case "endif":
		l.restOfLine()
		if n := len(l.condStack); n > 0 {
			l.condStack = l.condStack[:n-1]
		} else {
			l.errorf(p, "`endif without `ifdef")
		}
	case "timescale", "default_nettype", "resetall", "celldefine",
		"endcelldefine", "unconnected_drive", "nounconnected_drive",
		"line", "pragma":
		l.restOfLine()
	case "include":
		// No filesystem in the curation sandbox; treat as unsupported so the
		// syntax filter rejects files that depend on external headers.
		l.restOfLine()
		if !l.suppressed() {
			l.errorf(p, "`include is not supported")
		}
	default:
		// Macro expansion: splice the body into the input at this point.
		if l.suppressed() {
			return
		}
		body, ok := l.macros[name]
		if !ok {
			l.errorf(p, "undefined macro `%s", name)
			return
		}
		// Expand by prepending; positions inside the body map to the use site.
		if l.expanded += len(l.src) + len(body) + 2; l.expanded > maxExpansionBytes {
			l.errorf(p, "expanding `%s exceeds the %d-byte macro expansion budget", name, maxExpansionBytes)
			return
		}
		l.src = l.src[:l.off] + " " + body + " " + l.src[l.off:]
	}
}

func (l *Lexer) restOfLine() string {
	start := l.off
	for l.peek() != 0 && l.peek() != '\n' {
		// A backslash-newline continues the directive.
		if l.peek() == '\\' && l.peek2() == '\n' {
			l.advance()
			l.advance()
			continue
		}
		l.advance()
	}
	return l.src[start:l.off]
}

// Next returns the next token. After an error it returns EOF.
func (l *Lexer) Next() (t Token) {
	l.next(&t)
	return t
}

// next lexes the next token into t.
func (l *Lexer) next(t *Token) {
	k, start := l.scan()
	t.Kind, t.Pos, t.Text = k, l.tokPos(start), ""
	switch k {
	case IDENT, KEYWORD, NUMBER, SYSNAME:
		t.Text = l.src[start:l.off]
		if t.Text[0] == '\\' { // escaped identifier
			t.Text = t.Text[1:]
		}
	case STRING:
		t.Text = unquote(l.src[start+1 : l.off-1])
	}
}

// tokPos is the position of the token scan just returned, which starts at
// start. Only a string with an escaped newline and a based literal with a
// line break before its digits span lines; for those the line is counted
// back from the source, whose every newline before l.off has been counted.
func (l *Lexer) tokPos(start int) Pos {
	if start >= l.lineStart {
		return Pos{Line: l.line, Col: start - l.lineStart + 1}
	}
	return Pos{Line: l.line - strings.Count(l.src[start:l.off], "\n"),
		Col: start - strings.LastIndexByte(l.src[:start], '\n')}
}

// scan is the scanning core. It skips space, comments and directives, lexes
// one token and returns its kind and the offset it starts at; the token ends
// at l.off. After an error it returns EOF.
func (l *Lexer) scan() (Kind, int) {
	l.skipSpaceAndComments()
	src, start := l.src, l.off
	if l.err != nil || start >= len(src) {
		return EOF, start
	}
	switch c := src[start]; {
	case isIdentStart(c):
		l.off = skipIdent(src, start+1)
		if isKeyword(src[start:l.off]) {
			return KEYWORD, start
		}
		return IDENT, start
	case c == '\\':
		// Escaped identifier: backslash to next whitespace.
		i := start + 1
		for i < len(src) && src[i] != 0 && !isSpace(src[i]) {
			i++
		}
		if i == start+1 {
			l.errorf(l.pos(), "empty escaped identifier")
			return EOF, start
		}
		l.off = i
		return IDENT, start
	case c == '$':
		if i := skipIdent(src, start+1); i > start+1 {
			l.off = i
			return SYSNAME, start
		}
		l.errorf(l.pos(), "bare '$'")
		return EOF, start
	case isDigit(c) || c == '\'':
		return l.number(), start
	case c == '"':
		return l.stringLit(), start
	case punct[c] != EOF:
		l.off++
		return punct[c], start
	}
	return l.operator(), start
}

// number lexes decimal, based (4'b1010), and real literals. The token text is
// the raw literal; literalFault holds the rules its value must keep.
func (l *Lexer) number() Kind {
	src, p := l.src, l.pos()
	i := skipDigits(src, l.off)
	if i < len(src) && src[i] == '\'' {
		// Base part: 'b 'o 'd 'h with optional s for signed.
		i++
		if i < len(src) && src[i]|0x20 == 's' {
			i++
		}
		var base byte
		if i < len(src) {
			base = src[i]
		}
		switch base | 0x20 {
		case 'b', 'o', 'd', 'h':
			i++
		default:
			l.off = i
			l.errorf(p, "invalid numeric base %q", string(base))
			return EOF
		}
		// Value digits may be separated from the base by whitespace.
		for ; i < len(src) && isSpace(src[i]); i++ {
			if src[i] == '\n' {
				l.newline(i)
			}
		}
		digits := i
		for i < len(src) && isBasedDigit(src[i]) {
			i++
		}
		l.off = i
		if i == digits {
			l.errorf(p, "based literal missing digits")
			return EOF
		}
		return NUMBER
	}
	if i+1 < len(src) && src[i] == '.' && isDigit(src[i+1]) {
		i = skipDigits(src, i+1)
	}
	if i < len(src) && src[i]|0x20 == 'e' {
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		for i < len(src) && isDigit(src[i]) {
			i++
		}
	}
	l.off = i
	return NUMBER
}

// stringLit lexes a string literal; Next unquotes its text.
func (l *Lexer) stringLit() Kind {
	src, p := l.src, l.pos()
	for i := l.off + 1; ; {
		if i >= len(src) || src[i] == 0 || src[i] == '\n' {
			l.off = i
			l.errorf(p, "unterminated string literal")
			return EOF
		}
		c := src[i]
		i++
		if c == '"' {
			l.off = i
			return STRING
		}
		if c == '\\' && i < len(src) { // the escaped byte, a newline too
			if src[i] == '\n' {
				l.newline(i)
			}
			i++
		}
	}
}

// unquote returns the value of a string literal's body. A body without
// escapes is its own value.
func unquote(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			case '0':
				c = 0
			}
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// operators lists, for each byte, the operators spelled from it, longest
// first. kindNames holds every spelling but the second of XNOR. punct is the
// kind of each byte that is an operator whatever follows it.
var operators, punct = func() (t [256][]operator, punct [256]Kind) {
	add := func(s string, k Kind) { t[s[0]] = append(t[s[0]], operator{s, k}) }
	for k, s := range kindNames {
		if k >= LPAREN {
			add(s, k)
		}
	}
	add("~^", XNOR)
	for c, ops := range t {
		sort.Slice(ops, func(i, j int) bool { return len(ops[i].text) > len(ops[j].text) })
		if len(ops) == 1 && len(ops[0].text) == 1 {
			punct[c] = ops[0].kind
		}
	}
	return t, punct
}()

type operator struct {
	text string
	kind Kind
}

// operator lexes punctuation, longest match first.
func (l *Lexer) operator() Kind {
	rest := l.src[l.off:]
	for _, op := range operators[rest[0]] {
		if strings.HasPrefix(rest, op.text) {
			l.off += len(op.text)
			return op.kind
		}
	}
	l.errorf(l.pos(), "unexpected character %q", string(rest[0]))
	return EOF
}
