package vlog

import (
	"fmt"
	"sync/atomic"
)

// Parser is a recursive-descent parser for the supported Verilog subset. It
// pulls tokens from a lexer it owns and holds the current token and one
// lookahead, all the grammar reads: it never backtracks.
type Parser struct {
	lex   Lexer
	toks  [2]Token // the current token, toks[at&1], and the one after it
	at    uint     // advancing adds one: the slots swap roles, no token is copied
	depth int      // recursive productions entered and not yet left, see nest
}

// maxNesting bounds how deep the recursive productions may nest between
// them: expressions (parenthesised, concatenated, called, selected, the
// branches of ?:), unary and ** chains, statements (blocks, if, case,
// loops), lvalue concatenations and module items (generate regions, loops,
// conditionals and their bodies). Deeper than that a file is a parse error:
// the parser recurses, and a file of a million nested parentheses would
// otherwise outgrow the goroutine stack limit, a fatal error no recover
// catches. Written Verilog nests a few dozen deep at most.
const maxNesting = 1000

// nest enters one level of a recursive production, which unnest leaves. A
// parse that fails is abandoned, so an error return needs no unnest.
func (p *Parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errorf("nesting deeper than %d", maxNesting)
	}
	return nil
}

func (p *Parser) unnest() { p.depth-- }

// ParseFile parses a complete source file as it lexes it. A lexical error
// anywhere in the file wins over a parse error before it: the lexer stops at
// its first error, where the parser sees EOF, so after the parse the rest of
// the file is scanned, building no tokens, for an error further on.
func ParseFile(src string) (*SourceFile, error) {
	p := &Parser{lex: *NewLexer(src)}
	p.toks[0].Pos = Pos{1, 1} // where EOF points in a file without a token
	p.pull()
	p.advance()
	f, err := p.parseFile()
	for k := p.peek().Kind; k != EOF; k, _ = p.lex.scan() {
	}
	if err := p.lex.Err(); err != nil {
		return nil, err
	}
	return f, err
}

func (p *Parser) parseFile() (*SourceFile, error) {
	f := &SourceFile{}
	for !p.atEOF() {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		f.Modules = append(f.Modules, m)
	}
	if len(f.Modules) == 0 {
		return nil, &SyntaxError{Pos: Pos{1, 1}, Msg: "no module definition found"}
	}
	return f, nil
}

// Check reports whether src parses; it is the curation pipeline's syntax
// filter (the role Icarus Verilog plays in the paper).
func Check(src string) error {
	_, err := ParseFile(src)
	return err
}

// quickCheckOff gates the QuickCheck fast path in CheckFast (zero value =
// enabled). Tests flip it to prove verdict equivalence with the pre-check
// disabled.
var quickCheckOff atomic.Bool

// SetQuickCheck enables or disables the QuickCheck fast path taken by
// CheckFast. It is enabled by default; disabling is meant for tests and
// A/B measurement, since QuickCheck's good verdicts are definitive.
func SetQuickCheck(enabled bool) { quickCheckOff.Store(!enabled) }

// QuickCheckEnabled reports whether CheckFast may take the QuickCheck path.
func QuickCheckEnabled() bool { return !quickCheckOff.Load() }

// CheckFast is Check with the streaming pre-check in front: the common case
// (ordinary well-formed RTL) is decided by QuickCheck's single allocation-
// free pass, and only suspicious files pay for the full parse. The verdict
// is always identical to Check's.
func CheckFast(src string) error {
	if QuickCheckEnabled() && QuickCheck(src) {
		return nil
	}
	return Check(src)
}

func (p *Parser) atEOF() bool { return p.cur().Kind == EOF }

func (p *Parser) cur() Token { return p.toks[p.at&1] }

// peek is the token after the current one.
func (p *Parser) peek() Token { return p.toks[(p.at+1)&1] }

// advance moves past the current token.
func (p *Parser) advance() {
	p.at++
	p.pull()
}

// pull lexes the token after the current one. An EOF points where the last
// token does.
func (p *Parser) pull() {
	t := &p.toks[(p.at+1)&1]
	if p.lex.next(t); t.Kind == EOF {
		t.Pos = p.toks[p.at&1].Pos
	}
}

// next returns the current token and advances past it.
func (p *Parser) next() Token {
	t := p.cur()
	p.advance()
	return t
}

func (p *Parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) isKw(kw string) bool {
	t := p.cur()
	return t.Kind == KEYWORD && t.Text == kw
}

func (p *Parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	return nil
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errorf("expected %s, found %s", k, t)
	}
	p.advance()
	return t, nil
}

func (p *Parser) expectIdent() (string, Pos, error) {
	t := p.cur()
	if t.Kind != IDENT {
		return "", t.Pos, p.errorf("expected identifier, found %s", t)
	}
	p.advance()
	return t.Text, t.Pos, nil
}

// ---- Module ----

func (p *Parser) parseModule() (*Module, error) {
	t := p.cur()
	if !p.acceptKw("module") && !p.acceptKw("macromodule") {
		return nil, p.errorf("expected module, found %s", t)
	}
	name, pos, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Pos: pos}

	// Optional parameter port list: #(parameter A = 1, ...)
	if p.accept(HASH) {
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		if err := p.parseParamPortList(m); err != nil {
			return nil, err
		}
	}

	// Optional port list.
	if p.accept(LPAREN) {
		if err := p.parsePortList(m); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}

	for {
		if p.acceptKw("endmodule") {
			return m, nil
		}
		if p.atEOF() {
			return nil, p.errorf("unexpected EOF inside module %s", m.Name)
		}
		if err := p.parseModuleItem(m); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parseParamPortList(m *Module) error {
	if p.accept(RPAREN) {
		return nil
	}
	for {
		// Each entry may restate "parameter"; range and signedness optional.
		p.acceptKw("parameter")
		signed := p.acceptKw("signed")
		var vec *RangeSpec
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			vec = r
		}
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, err := p.expect(EQ); err != nil {
			return err
		}
		v, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Params = append(m.Params, &Param{Name: name, Pos: pos, Value: v, Signed: signed, Vec: vec})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(RPAREN)
		return err
	}
}

// parsePortList parses both ANSI and non-ANSI port lists; LPAREN is consumed.
func (p *Parser) parsePortList(m *Module) error {
	if p.accept(RPAREN) {
		return nil
	}
	t := p.cur()
	ansi := t.Kind == KEYWORD && (t.Text == "input" || t.Text == "output" || t.Text == "inout")
	if !ansi {
		// Non-ANSI: a comma-separated list of identifiers.
		for {
			name, pos, err := p.expectIdent()
			if err != nil {
				return err
			}
			m.Ports = append(m.Ports, &Port{Name: name, Pos: pos})
			if p.accept(COMMA) {
				continue
			}
			_, err = p.expect(RPAREN)
			return err
		}
	}
	// ANSI: direction [net type] [signed] [range] name, direction carries over.
	dir := ""
	kind := DeclWire
	haveKind := false
	signed := false
	var vec *RangeSpec
	for {
		t := p.cur()
		if t.Kind == KEYWORD && (t.Text == "input" || t.Text == "output" || t.Text == "inout") {
			dir = t.Text
			p.advance()
			kind, haveKind = DeclWire, false
			signed = false
			vec = nil
			if p.isKw("wire") || p.isKw("reg") || p.isKw("integer") || p.isKw("wand") || p.isKw("wor") || p.isKw("tri") {
				switch p.next().Text {
				case "reg":
					kind = DeclReg
				case "integer":
					kind = DeclInteger
				default:
					kind = DeclWire
				}
				haveKind = true
			}
			if p.acceptKw("signed") {
				signed = true
			}
			if p.cur().Kind == LBRACK {
				r, err := p.parseRange()
				if err != nil {
					return err
				}
				vec = r
			}
		}
		if dir == "" {
			return p.errorf("ANSI port list entry missing direction")
		}
		_ = haveKind
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		d := &Decl{Kind: kind, Name: name, Pos: pos, Dir: dir, Signed: signed, Vec: vec}
		if kind == DeclInteger {
			d.Signed = true
		}
		m.Ports = append(m.Ports, &Port{Name: name, Pos: pos, Dir: dir, Decl: d})
		m.Decls = append(m.Decls, d)
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(RPAREN)
		return err
	}
}

// parseRange parses [msb:lsb].
func (p *Parser) parseRange() (*RangeSpec, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RBRACK); err != nil {
		return nil, err
	}
	return &RangeSpec{MSB: msb, LSB: lsb}, nil
}

// ---- Module items ----

func (p *Parser) parseModuleItem(m *Module) error {
	if err := p.nest(); err != nil {
		return err
	}
	defer p.unnest()
	t := p.cur()
	if t.Kind == KEYWORD {
		switch t.Text {
		case "parameter", "localparam":
			return p.parseParamDecl(m)
		case "input", "output", "inout":
			return p.parsePortDecl(m)
		case "wire", "tri", "tri0", "tri1", "wand", "wor", "supply0", "supply1",
			"reg", "integer", "time", "real", "realtime", "genvar", "event":
			return p.parseNetDecl(m)
		case "assign":
			return p.parseContAssign(m)
		case "always":
			p.advance()
			body, err := p.parseStmt()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, &Process{Pos: t.Pos, Kind: ProcAlways, Body: body})
			return nil
		case "initial":
			p.advance()
			body, err := p.parseStmt()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, &Process{Pos: t.Pos, Kind: ProcInitial, Body: body})
			return nil
		case "function":
			return p.parseFunction(m)
		case "task":
			return p.parseTask(m)
		case "generate":
			p.advance()
			for !p.acceptKw("endgenerate") {
				if p.atEOF() {
					return p.errorf("unexpected EOF in generate block")
				}
				if err := p.parseModuleItem(m); err != nil {
					return err
				}
			}
			return nil
		case "for":
			gf, err := p.parseGenFor()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, gf)
			return nil
		case "if":
			gi, err := p.parseGenIf()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, gi)
			return nil
		case "defparam":
			// Accepted and ignored: parse `defparam path = expr, ... ;`
			p.advance()
			for {
				if _, err := p.parsePrimary(); err != nil {
					return err
				}
				if _, err := p.expect(EQ); err != nil {
					return err
				}
				if _, err := p.parseExpr(); err != nil {
					return err
				}
				if p.accept(COMMA) {
					continue
				}
				_, err := p.expect(SEMI)
				return err
			}
		case "specify":
			// Skip the whole block: timing specs are irrelevant here.
			p.advance()
			for !p.acceptKw("endspecify") {
				if p.atEOF() {
					return p.errorf("unexpected EOF in specify block")
				}
				p.advance()
			}
			return nil
		case "and", "nand", "or", "nor", "xor", "xnor", "buf", "not":
			return p.parseGateInst(m)
		}
		return p.errorf("unsupported construct %q", t.Text)
	}
	if t.Kind == IDENT {
		return p.parseModuleInst(m)
	}
	return p.errorf("unexpected %s in module body", t)
}

func (p *Parser) parseParamDecl(m *Module) error {
	isLocal := p.cur().Text == "localparam"
	p.advance()
	signed := p.acceptKw("signed")
	p.acceptKw("integer") // "parameter integer N = 4" form
	var vec *RangeSpec
	if p.cur().Kind == LBRACK {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		vec = r
	}
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		if _, err := p.expect(EQ); err != nil {
			return err
		}
		v, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Params = append(m.Params, &Param{Name: name, Pos: pos, Value: v, IsLocal: isLocal, Signed: signed, Vec: vec})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

// parsePortDecl handles non-ANSI body port declarations:
// input [3:0] a, b;  output reg [7:0] q;
func (p *Parser) parsePortDecl(m *Module) error {
	dir := p.next().Text
	kind := DeclWire
	if p.acceptKw("reg") {
		kind = DeclReg
	} else if p.acceptKw("wire") || p.acceptKw("tri") {
		kind = DeclWire
	} else if p.acceptKw("integer") {
		kind = DeclInteger
	}
	signed := p.acceptKw("signed")
	var vec *RangeSpec
	if p.cur().Kind == LBRACK {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		vec = r
	}
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		d := &Decl{Kind: kind, Name: name, Pos: pos, Dir: dir, Signed: signed || kind == DeclInteger, Vec: vec}
		m.Decls = append(m.Decls, d)
		// Mark the corresponding header port's direction.
		for _, pt := range m.Ports {
			if pt.Name == name && pt.Dir == "" {
				pt.Dir = dir
				pt.Decl = d
			}
		}
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

func (p *Parser) parseNetDecl(m *Module) error {
	kw := p.next().Text
	var kind DeclKind
	signedDefault := false
	switch kw {
	case "reg":
		kind = DeclReg
	case "integer":
		kind = DeclInteger
		signedDefault = true
	case "time", "realtime":
		kind = DeclTime
	case "real":
		kind = DeclReal
		signedDefault = true
	case "genvar":
		kind = DeclGenvar
	case "event":
		kind = DeclEvent
	default:
		kind = DeclWire
	}
	signed := p.acceptKw("signed") || signedDefault
	p.acceptKw("scalared")
	p.acceptKw("vectored")
	var vec *RangeSpec
	if p.cur().Kind == LBRACK {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		vec = r
	}
	// Optional delay on nets: wire #3 w; parsed and ignored.
	if p.accept(HASH) {
		if _, err := p.parseDelayValue(); err != nil {
			return err
		}
	}
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		d := &Decl{Kind: kind, Name: name, Pos: pos, Signed: signed, Vec: vec}
		if kind == DeclGenvar {
			m.Genvar = append(m.Genvar, name)
		}
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			d.Arr = r
		}
		if p.accept(EQ) {
			init, err := p.parseExpr()
			if err != nil {
				return err
			}
			d.Init = init
		}
		if kind != DeclGenvar {
			m.Decls = append(m.Decls, d)
		}
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

func (p *Parser) parseDelayValue() (Expr, error) {
	// #n, #ident, or #(expr [, expr [, expr]]) — we keep only the first.
	if p.accept(LPAREN) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		for p.accept(COMMA) {
			if _, err := p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parseContAssign(m *Module) error {
	pos := p.next().Pos // consume "assign"
	var delay Expr
	if p.accept(HASH) {
		d, err := p.parseDelayValue()
		if err != nil {
			return err
		}
		delay = d
	}
	for {
		lhs, err := p.parseLValue()
		if err != nil {
			return err
		}
		if _, err := p.expect(EQ); err != nil {
			return err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, &ContAssign{Pos: pos, LHS: lhs, RHS: rhs, Delay: delay})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

func (p *Parser) parseGateInst(m *Module) error {
	gate := p.next().Text
	// Optional delay/strength: #d or (strength) ignored.
	if p.accept(HASH) {
		if _, err := p.parseDelayValue(); err != nil {
			return err
		}
	}
	for {
		name := ""
		if p.cur().Kind == IDENT {
			name = p.next().Text
			// Optional range on gate arrays: skipped.
			if p.cur().Kind == LBRACK {
				if _, err := p.parseRange(); err != nil {
					return err
				}
			}
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		inst := &Instance{Pos: p.cur().Pos, ModName: gate, Name: name, Gate: true}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			inst.Conns = append(inst.Conns, &Connection{Expr: e})
			if p.accept(COMMA) {
				continue
			}
			break
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		m.Items = append(m.Items, inst)
		if p.accept(COMMA) {
			continue
		}
		_, err := p.expect(SEMI)
		return err
	}
}

func (p *Parser) parseModuleInst(m *Module) error {
	modName, pos, err := p.expectIdent()
	if err != nil {
		return err
	}
	var params []*Connection
	if p.accept(HASH) {
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		params, err = p.parseConnections()
		if err != nil {
			return err
		}
	}
	for {
		instName, _, err := p.expectIdent()
		if err != nil {
			return err
		}
		if p.cur().Kind == LBRACK { // instance arrays: unsupported range ignored
			if _, err := p.parseRange(); err != nil {
				return err
			}
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		conns, err := p.parseConnections()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, &Instance{
			Pos: pos, ModName: modName, Name: instName, Params: params, Conns: conns,
		})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

// parseConnections parses a (possibly empty) connection list after LPAREN,
// consuming the closing RPAREN. Named and positional styles both work.
func (p *Parser) parseConnections() ([]*Connection, error) {
	var conns []*Connection
	if p.accept(RPAREN) {
		return conns, nil
	}
	for {
		if p.accept(DOT) {
			name, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			c := &Connection{Name: name}
			if !p.accept(RPAREN) {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Expr = e
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
			conns = append(conns, c)
		} else if p.cur().Kind == COMMA || p.cur().Kind == RPAREN {
			// Empty positional connection.
			conns = append(conns, &Connection{})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			conns = append(conns, &Connection{Expr: e})
		}
		if p.accept(COMMA) {
			continue
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return conns, nil
	}
}

// ---- Generate ----

func (p *Parser) parseGenFor() (*GenFor, error) {
	pos := p.cur().Pos
	if err := p.expectKw("for"); err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	v, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	initVal, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	sv, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	stepVal, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	gf := &GenFor{Pos: pos, Genvar: v, InitVal: initVal, Cond: cond, StepVar: sv, StepVal: stepVal}
	items, decls, label, err := p.parseGenBody()
	if err != nil {
		return nil, err
	}
	gf.Body, gf.BodyDecl, gf.Label = items, decls, label
	return gf, nil
}

func (p *Parser) parseGenIf() (*GenIf, error) {
	pos := p.cur().Pos
	if err := p.expectKw("if"); err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	gi := &GenIf{Pos: pos, Cond: cond}
	items, decls, _, err := p.parseGenBody()
	if err != nil {
		return nil, err
	}
	gi.Then, gi.ThenDecl = items, decls
	if p.acceptKw("else") {
		if p.isKw("if") {
			nested, err := p.parseGenIf()
			if err != nil {
				return nil, err
			}
			gi.Else = []Item{nested}
		} else {
			items, decls, _, err := p.parseGenBody()
			if err != nil {
				return nil, err
			}
			gi.Else, gi.ElseDecl = items, decls
		}
	}
	return gi, nil
}

// parseGenBody parses either `begin [:label] items end` or a single item.
func (p *Parser) parseGenBody() (items []Item, decls []*Decl, label string, err error) {
	sub := &Module{}
	if p.acceptKw("begin") {
		if p.accept(COLON) {
			label, _, err = p.expectIdent()
			if err != nil {
				return nil, nil, "", err
			}
		}
		for !p.acceptKw("end") {
			if p.atEOF() {
				return nil, nil, "", p.errorf("unexpected EOF in generate body")
			}
			if err := p.parseModuleItem(sub); err != nil {
				return nil, nil, "", err
			}
		}
	} else {
		if err := p.parseModuleItem(sub); err != nil {
			return nil, nil, "", err
		}
	}
	return sub.Items, sub.Decls, label, nil
}

// ---- Functions and tasks ----

func (p *Parser) parseFunction(m *Module) error {
	pos := p.cur().Pos
	p.advance() // function
	p.acceptKw("automatic")
	f := &Func{Pos: pos}
	if p.acceptKw("integer") {
		f.Integer = true
		f.Signed = true
	} else if p.acceptKw("real") {
		return p.errorf("real functions are not supported")
	} else {
		if p.acceptKw("signed") {
			f.Signed = true
		}
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			f.Ret = r
		}
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return err
	}
	f.Name = name
	if f.Body, err = p.parseTFRest("endfunction", &f.Inputs, &f.Locals); err != nil {
		return err
	}
	m.Funcs = append(m.Funcs, f)
	return nil
}

func (p *Parser) parseTask(m *Module) error {
	pos := p.cur().Pos
	p.advance() // task
	p.acceptKw("automatic")
	name, _, err := p.expectIdent()
	if err != nil {
		return err
	}
	t := &Task{Name: name, Pos: pos}
	if t.Body, err = p.parseTFRest("endtask", &t.Inputs, &t.Locals); err != nil {
		return err
	}
	m.Tasks = append(m.Tasks, t)
	return nil
}

// parseTFRest parses what follows a function's or task's name: an optional
// ANSI port list, the `;`, port and local declarations, the one body
// statement (usually begin/end) and the end keyword.
func (p *Parser) parseTFRest(end string, inputs, locals *[]*Decl) (Stmt, error) {
	if p.accept(LPAREN) {
		if err := p.parseTFPorts(inputs); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == KEYWORD && (t.Text == "input" || t.Text == "output" || t.Text == "inout") {
			if err := p.parseTFPortDecl(inputs); err != nil {
				return nil, err
			}
			continue
		}
		if t.Kind == KEYWORD && (t.Text == "reg" || t.Text == "integer") {
			if err := p.parseLocalDecls(locals); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return body, p.expectKw(end)
}

// parseTFPorts parses an ANSI function/task port list up to RPAREN.
func (p *Parser) parseTFPorts(out *[]*Decl) error {
	if p.accept(RPAREN) {
		return nil
	}
	dir := "input"
	kind := DeclReg
	signed := false
	var vec *RangeSpec
	for {
		t := p.cur()
		if t.Kind == KEYWORD && (t.Text == "input" || t.Text == "output" || t.Text == "inout") {
			dir = t.Text
			p.advance()
			kind, signed, vec = DeclReg, false, nil
			if p.acceptKw("reg") {
				kind = DeclReg
			} else if p.acceptKw("integer") {
				kind = DeclInteger
				signed = true
			}
			if p.acceptKw("signed") {
				signed = true
			}
			if p.cur().Kind == LBRACK {
				r, err := p.parseRange()
				if err != nil {
					return err
				}
				vec = r
			}
		}
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		*out = append(*out, &Decl{Kind: kind, Name: name, Pos: pos, Dir: dir, Signed: signed, Vec: vec})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(RPAREN)
		return err
	}
}

// parseTFPortDecl parses one body-style input/output declaration line.
func (p *Parser) parseTFPortDecl(out *[]*Decl) error {
	dir := p.next().Text
	kind := DeclReg
	signed := false
	if p.acceptKw("reg") {
		kind = DeclReg
	} else if p.acceptKw("integer") {
		kind = DeclInteger
		signed = true
	}
	if p.acceptKw("signed") {
		signed = true
	}
	var vec *RangeSpec
	if p.cur().Kind == LBRACK {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		vec = r
	}
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		*out = append(*out, &Decl{Kind: kind, Name: name, Pos: pos, Dir: dir, Signed: signed, Vec: vec})
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}

// parseLocalDecls parses reg/integer declarations local to blocks/functions.
func (p *Parser) parseLocalDecls(out *[]*Decl) error {
	kw := p.next().Text
	kind := DeclReg
	signed := false
	if kw == "integer" {
		kind = DeclInteger
		signed = true
	}
	if p.acceptKw("signed") {
		signed = true
	}
	var vec *RangeSpec
	if p.cur().Kind == LBRACK {
		r, err := p.parseRange()
		if err != nil {
			return err
		}
		vec = r
	}
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		d := &Decl{Kind: kind, Name: name, Pos: pos, Signed: signed, Vec: vec}
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			d.Arr = r
		}
		if p.accept(EQ) {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			d.Init = e
		}
		*out = append(*out, d)
		if p.accept(COMMA) {
			continue
		}
		_, err = p.expect(SEMI)
		return err
	}
}
