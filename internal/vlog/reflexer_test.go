package vlog

import (
	"fmt"
	"strconv"
	"strings"
)

// refLexer is the lexer as it was before the scanning core: one Pos per
// byte advanced, a map of keywords, and a string built per STRING and
// SYSNAME token. FuzzTokenize holds Lexer to its token stream.
//
// It tokenizes Verilog source text. It handles comments, a small
// preprocessor (`define of object-like macros, `ifdef/`ifndef/`else/`endif,
// and line-oriented directives such as `timescale which are skipped), and
// escaped identifiers.
type refLexer struct {
	src    string
	off    int
	line   int
	col    int
	macros map[string]string
	// expanded counts the bytes macro expansions have copied.
	expanded int
	// ifdef stack: true means the current branch is active.
	condStack []bool
	err       *SyntaxError
}

// newRefLexer returns a reference lexer over src.
func newRefLexer(src string) *refLexer {
	return &refLexer{src: src, line: 1, col: 1, macros: map[string]string{}}
}

func (l *refLexer) errorf(p Pos, format string, args ...any) {
	if l.err == nil {
		l.err = &SyntaxError{Pos: p, Msg: fmt.Sprintf(format, args...)}
	}
}

// Err returns the first lexical error encountered, if any.
func (l *refLexer) Err() error {
	if l.err == nil {
		return nil
	}
	return l.err
}

func (l *refLexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *refLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() byte {
	if l.off >= len(l.src) {
		return 0
	}
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpaceAndComments consumes whitespace, comments, and preprocessor
// directives, returning when the next token starts or input ends.
func (l *refLexer) skipSpaceAndComments() {
	for {
		c := l.peek()
		switch {
		case c == 0:
			return
		case isSpace(c):
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.peek() != 0 && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			p := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.peek() != 0 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(p, "unterminated block comment")
				return
			}
		case c == '`':
			l.directive()
		default:
			if l.suppressed() {
				// Inside a false `ifdef branch: consume one raw char.
				l.advance()
				continue
			}
			return
		}
	}
}

// suppressed reports whether the lexer is inside an inactive `ifdef branch.
func (l *refLexer) suppressed() bool {
	for _, active := range l.condStack {
		if !active {
			return true
		}
	}
	return false
}

// directive handles a `-prefixed preprocessor directive or macro use.
func (l *refLexer) directive() {
	p := l.pos()
	l.advance() // consume `
	start := l.off
	for isIdentPart(l.peek()) {
		l.advance()
	}
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

func (l *refLexer) restOfLine() string {
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
func (l *refLexer) Next() Token {
	l.skipSpaceAndComments()
	p := l.pos()
	if l.err != nil || l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		// A based literal may follow a decimal size that itself followed an
		// identifier boundary; sizes are lexed as NUMBER below.
		if refKeywords[text] {
			return Token{Kind: KEYWORD, Text: text, Pos: p}
		}
		return Token{Kind: IDENT, Text: text, Pos: p}
	case c == '\\':
		// Escaped identifier: backslash to next whitespace.
		l.advance()
		start := l.off
		for l.peek() != 0 && !isSpace(l.peek()) {
			l.advance()
		}
		if l.off == start {
			l.errorf(p, "empty escaped identifier")
			return Token{Kind: EOF, Pos: p}
		}
		return Token{Kind: IDENT, Text: l.src[start:l.off], Pos: p}
	case c == '$':
		l.advance()
		start := l.off
		for isIdentPart(l.peek()) {
			l.advance()
		}
		if l.off == start {
			l.errorf(p, "bare '$'")
			return Token{Kind: EOF, Pos: p}
		}
		return Token{Kind: SYSNAME, Text: "$" + l.src[start:l.off], Pos: p}
	case isDigit(c) || c == '\'':
		return l.number(p)
	case c == '"':
		return l.stringLit(p)
	default:
		return l.operator(p)
	}
}

// number lexes decimal, based (4'b1010), and real literals. The token text is
// the raw literal; numeric interpretation happens in the parser.
func (l *refLexer) number(p Pos) Token {
	start := l.off
	for isDigit(l.peek()) || l.peek() == '_' {
		l.advance()
	}
	// Optional base part: 'b 'o 'd 'h with optional s for signed.
	if l.peek() == '\'' {
		l.advance()
		if l.peek() == 's' || l.peek() == 'S' {
			l.advance()
		}
		base := l.peek()
		switch base {
		case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
			l.advance()
		default:
			l.errorf(p, "invalid numeric base %q", string(base))
			return Token{Kind: EOF, Pos: p}
		}
		// Value digits may be separated from the base by whitespace.
		for isSpace(l.peek()) {
			l.advance()
		}
		digs := 0
		for {
			c := l.peek()
			if c == '_' || isDigit(c) ||
				(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') ||
				c == 'x' || c == 'X' || c == 'z' || c == 'Z' || c == '?' {
				l.advance()
				digs++
				continue
			}
			break
		}
		if digs == 0 {
			l.errorf(p, "based literal missing digits")
			return Token{Kind: EOF, Pos: p}
		}
	} else if l.peek() == '.' && isDigit(l.peek2()) {
		l.advance()
		for isDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for isDigit(l.peek()) {
				l.advance()
			}
		}
	} else if l.peek() == 'e' || l.peek() == 'E' {
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		for isDigit(l.peek()) {
			l.advance()
		}
	}
	return Token{Kind: NUMBER, Text: l.src[start:l.off], Pos: p}
}

func (l *refLexer) stringLit(p Pos) Token {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		c := l.peek()
		if c == 0 || c == '\n' {
			l.errorf(p, "unterminated string literal")
			return Token{Kind: EOF, Pos: p}
		}
		if c == '"' {
			l.advance()
			break
		}
		if c == '\\' {
			l.advance()
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			default:
				sb.WriteByte(e)
			}
			continue
		}
		sb.WriteByte(l.advance())
	}
	return Token{Kind: STRING, Text: sb.String(), Pos: p}
}

// operator lexes punctuation, longest match first.
func (l *refLexer) operator(p Pos) Token {
	two := ""
	if l.off+1 < len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	three := ""
	if l.off+2 < len(l.src) {
		three = l.src[l.off : l.off+3]
	}
	emit := func(k Kind, n int) Token {
		for i := 0; i < n; i++ {
			l.advance()
		}
		return Token{Kind: k, Pos: p}
	}
	switch three {
	case "===":
		return emit(CASEEQ, 3)
	case "!==":
		return emit(CASENE, 3)
	case "<<<":
		return emit(ASHL, 3)
	case ">>>":
		return emit(ASHR, 3)
	}
	switch two {
	case "**":
		return emit(POW, 2)
	case "&&":
		return emit(LAND, 2)
	case "||":
		return emit(LOR, 2)
	case "==":
		return emit(EQEQ, 2)
	case "!=":
		return emit(NEQ, 2)
	case "<=":
		return emit(LE, 2)
	case ">=":
		return emit(GE, 2)
	case "<<":
		return emit(SHL, 2)
	case ">>":
		return emit(SHR, 2)
	case "^~", "~^":
		return emit(XNOR, 2)
	case "~&":
		return emit(NAND, 2)
	case "~|":
		return emit(NOR, 2)
	case "+:":
		return emit(PLUSCOLON, 2)
	case "-:":
		return emit(MINUSCOLON, 2)
	case "->":
		return emit(ARROW, 2)
	}
	switch l.peek() {
	case '(':
		return emit(LPAREN, 1)
	case ')':
		return emit(RPAREN, 1)
	case '[':
		return emit(LBRACK, 1)
	case ']':
		return emit(RBRACK, 1)
	case '{':
		return emit(LBRACE, 1)
	case '}':
		return emit(RBRACE, 1)
	case ';':
		return emit(SEMI, 1)
	case ':':
		return emit(COLON, 1)
	case ',':
		return emit(COMMA, 1)
	case '.':
		return emit(DOT, 1)
	case '@':
		return emit(AT, 1)
	case '#':
		return emit(HASH, 1)
	case '?':
		return emit(QUESTION, 1)
	case '=':
		return emit(EQ, 1)
	case '+':
		return emit(PLUS, 1)
	case '-':
		return emit(MINUS, 1)
	case '*':
		return emit(STAR, 1)
	case '/':
		return emit(SLASH, 1)
	case '%':
		return emit(PERCENT, 1)
	case '!':
		return emit(NOT, 1)
	case '~':
		return emit(TILD, 1)
	case '&':
		return emit(AND, 1)
	case '|':
		return emit(OR, 1)
	case '^':
		return emit(XOR, 1)
	case '<':
		return emit(LT, 1)
	case '>':
		return emit(GT, 1)
	}
	l.errorf(p, "unexpected character %q", string(l.peek()))
	return Token{Kind: EOF, Pos: p}
}

// refKeywords is the reference lexer's set of reserved words.
var refKeywords = map[string]bool{
	"module": true, "endmodule": true, "macromodule": true,
	"input": true, "output": true, "inout": true,
	"wire": true, "reg": true, "integer": true, "real": true, "time": true,
	"realtime": true, "tri": true, "tri0": true, "tri1": true, "triand": true,
	"trior": true, "trireg": true, "wand": true, "wor": true,
	"supply0": true, "supply1": true,
	"parameter": true, "localparam": true, "defparam": true,
	"assign": true, "deassign": true, "force": true, "release": true,
	"always": true, "initial": true,
	"begin": true, "end": true,
	"if": true, "else": true,
	"case": true, "casez": true, "casex": true, "endcase": true, "default": true,
	"for": true, "while": true, "repeat": true, "forever": true,
	"posedge": true, "negedge": true, "edge": true, "or": true,
	"function": true, "endfunction": true, "task": true, "endtask": true,
	"automatic": true,
	"genvar":    true, "generate": true, "endgenerate": true,
	"signed": true, "scalared": true, "vectored": true,
	"wait": true, "disable": true, "event": true,
	"fork": true, "join": true,
	"and": true, "nand": true, "nor": true, "not": true,
	"xor": true, "xnor": true, "buf": true, "bufif0": true, "bufif1": true,
	"notif0": true, "notif1": true,
	"specify": true, "endspecify": true, "specparam": true,
	"primitive": true, "endprimitive": true, "table": true, "endtable": true,
	"pullup": true, "pulldown": true,
	"cmos": true, "rcmos": true, "nmos": true, "pmos": true, "rnmos": true,
	"rpmos": true, "tran": true, "rtran": true, "tranif0": true, "tranif1": true,
	"rtranif0": true, "rtranif1": true,
	"strong0": true, "strong1": true, "pull0": true, "pull1": true,
	"weak0": true, "weak1": true, "highz0": true, "highz1": true,
	"small": true, "medium": true, "large": true,
}

// refParseNumericToken is parseNumericToken as it was before literalFault
// took its rules: FuzzTokenize holds the two to the same value and error on
// every NUMBER the lexer makes.
func refParseNumericToken(t Token) (Expr, error) {
	text := t.Text
	if !strings.ContainsRune(text, '\'') {
		if strings.ContainsAny(text, ".eE") {
			clean := strings.ReplaceAll(text, "_", "")
			v, err := strconv.ParseFloat(clean, 64)
			if err != nil {
				return nil, &SyntaxError{Pos: t.Pos, Msg: "invalid real literal " + text}
			}
			return &RealLit{Pos: t.Pos, Value: v, Text: text}, nil
		}
		clean := strings.ReplaceAll(text, "_", "")
		n := &Number{Pos: t.Pos, Width: 32, Signed: true, Text: text}
		n.A = make([]uint64, 1)
		n.B = make([]uint64, 1)
		v, err := strconv.ParseUint(clean, 10, 64)
		if err != nil {
			return nil, &SyntaxError{Pos: t.Pos, Msg: "invalid decimal literal " + text}
		}
		if v > 0xFFFFFFFF {
			// Unsized decimal literals wider than 32 bits keep their natural
			// width, like most tools.
			n.Width = 64
		}
		n.A[0] = v
		return n, nil
	}

	quote := strings.IndexByte(text, '\'')
	sizeStr := strings.ReplaceAll(strings.TrimSpace(text[:quote]), "_", "")
	rest := text[quote+1:]
	signed := false
	if len(rest) > 0 && (rest[0] == 's' || rest[0] == 'S') {
		signed = true
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return nil, &SyntaxError{Pos: t.Pos, Msg: "malformed literal " + text}
	}
	base := rest[0]
	digits := strings.ReplaceAll(strings.TrimSpace(rest[1:]), "_", "")
	if digits == "" {
		return nil, &SyntaxError{Pos: t.Pos, Msg: "literal missing digits: " + text}
	}

	width := 0
	sized := false
	if sizeStr != "" {
		w, err := strconv.Atoi(sizeStr)
		if err != nil || w <= 0 {
			return nil, &SyntaxError{Pos: t.Pos, Msg: "invalid literal size in " + text}
		}
		if w > maxLiteralBits {
			return nil, &SyntaxError{Pos: t.Pos, Msg: "literal too wide: " + text}
		}
		width = w
		sized = true
	}

	var bitsPerDigit int
	switch base {
	case 'b', 'B':
		bitsPerDigit = 1
	case 'o', 'O':
		bitsPerDigit = 3
	case 'h', 'H':
		bitsPerDigit = 4
	case 'd', 'D':
		return refParseDecimalBased(t, digits, width, sized, signed)
	default:
		return nil, &SyntaxError{Pos: t.Pos, Msg: "invalid base in literal " + text}
	}

	natural := len(digits) * bitsPerDigit
	if natural > maxLiteralBits {
		return nil, &SyntaxError{Pos: t.Pos, Msg: "literal too wide: " + text}
	}
	if !sized {
		width = natural
		if width < 32 {
			width = 32
		}
	}
	n := &Number{
		Pos: t.Pos, Width: width, Sized: sized, Signed: signed, Text: text,
		A: make([]uint64, words(width)), B: make([]uint64, words(width)),
	}
	// Fill bits LSB-first from the last digit.
	bit := 0
	var msbA, msbB uint64 // planes of the most significant digit's top bit
	for i := len(digits) - 1; i >= 0; i-- {
		da, db, err := refDigitPlanes(digits[i], base)
		if err != nil {
			return nil, &SyntaxError{Pos: t.Pos, Msg: err.Error() + " in " + text}
		}
		for k := 0; k < bitsPerDigit; k++ {
			a := (da >> k) & 1
			b := (db >> k) & 1
			if bit < width {
				n.A[bit/64] |= a << (bit % 64)
				n.B[bit/64] |= b << (bit % 64)
			}
			if i == 0 && k == bitsPerDigit-1 {
				msbA, msbB = a, b
			}
			bit++
		}
	}
	// If the literal is narrower than the declared width and its leading
	// digit is x or z, the extension repeats x/z (IEEE 1364 §3.5.1).
	if natural < width && msbB == 1 {
		for j := natural; j < width; j++ {
			n.A[j/64] |= msbA << (j % 64)
			n.B[j/64] |= 1 << (j % 64)
		}
	}
	return n, nil
}

// refDigitPlanes returns 4-state planes for one digit in base b/o/h. x -> all x,
// z/? -> all z within the digit's bits.
func refDigitPlanes(c byte, base byte) (a, b uint64, err error) {
	switch {
	case c == 'x' || c == 'X':
		return ^uint64(0), ^uint64(0), nil
	case c == 'z' || c == 'Z' || c == '?':
		return 0, ^uint64(0), nil
	}
	var v uint64
	switch {
	case c >= '0' && c <= '9':
		v = uint64(c - '0')
	case c >= 'a' && c <= 'f':
		v = uint64(c-'a') + 10
	case c >= 'A' && c <= 'F':
		v = uint64(c-'A') + 10
	default:
		return 0, 0, fmt.Errorf("invalid digit %q", string(c))
	}
	var max uint64
	switch base {
	case 'b', 'B':
		max = 1
	case 'o', 'O':
		max = 7
	default:
		max = 15
	}
	if v > max {
		return 0, 0, fmt.Errorf("digit %q out of range for base", string(c))
	}
	return v, 0, nil
}

// refParseDecimalBased handles 'd literals, including the single-digit x/z forms.
func refParseDecimalBased(t Token, digits string, width int, sized, signed bool) (Expr, error) {
	if !sized {
		width = 32
	}
	n := &Number{
		Pos: t.Pos, Width: width, Sized: sized, Signed: signed, Text: t.Text,
		A: make([]uint64, words(width)), B: make([]uint64, words(width)),
	}
	if digits == "x" || digits == "X" {
		for i := 0; i < width; i++ {
			n.A[i/64] |= 1 << (i % 64)
			n.B[i/64] |= 1 << (i % 64)
		}
		return n, nil
	}
	if digits == "z" || digits == "Z" || digits == "?" {
		for i := 0; i < width; i++ {
			n.B[i/64] |= 1 << (i % 64)
		}
		return n, nil
	}
	// Multi-word accumulate: n = n*10 + d.
	acc := make([]uint64, words(width))
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return nil, &SyntaxError{Pos: t.Pos, Msg: "invalid decimal digit in " + t.Text}
		}
		carry := uint64(c - '0')
		for w := range acc {
			lo, hi := mul64(acc[w], 10)
			lo, c2 := add64(lo, carry)
			acc[w] = lo
			carry = hi + c2
		}
		// carry overflow beyond width is silently truncated, as in Verilog.
	}
	copy(n.A, acc)
	n.maskTop()
	return n, nil
}
