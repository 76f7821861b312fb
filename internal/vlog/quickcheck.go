package vlog

// QuickCheck is the curation funnel's streaming syntax pre-check: one
// forward pass that feeds the lexer's scanning core (Lexer.scan: a kind and
// a byte span per token, no Token, no Pos) to a statement machine, which
// validates a strict structural subset of the grammar — bracket and
// begin/end/module balance, declaration and statement shapes, and
// token-pair legality — without an AST or any heap state.
//
// The verdict is asymmetric by design:
//
//   - true  means src is definitively well-formed: every construct fell
//     inside the validated subset and all structural rules held, so the
//     full parser is guaranteed to accept it and the caller may skip the
//     parse entirely (this is the overwhelmingly common case in a scraped
//     corpus, which is dominated by ordinary synthesizable RTL).
//   - false means "suspicion", not "bad": the input either broke a
//     structural rule or used a construct outside the validated subset
//     (preprocessor directives, escaped identifiers, system tasks,
//     hierarchical instantiation, functions, ...). Callers must fall back
//     to the full parser for the real verdict, so QuickCheck never
//     produces a false *bad* verdict.
//
// Soundness of the true verdict rests on two things. The tokens are the
// parser's own: one lexer, one keyword table (classifyWord) and one set of
// literal rules (literalFault) serve both, so a lexical error is suspect and
// a NUMBER is good only if the parser will take its value. And the subset is
// strictly conservative: any token sequence the validator cannot prove legal
// is suspicious. FuzzQuickCheck pins the contract (QuickCheck(src) implies
// Check(src) == nil), and the core determinism test pins byte-identical
// curation kept sets with the pre-check enabled and disabled.
func QuickCheck(src string) bool {
	q := qscan{lx: Lexer{src: src, line: 1, quick: true}}
	return q.run()
}

// Statement-machine states. Each names what the validator expects next.
const (
	qsTop            uint8 = iota // outside any module: only `module`
	qsModName                     // after `module`: the module name
	qsModAfterName                // `(` (port list) or `;`
	qsPortHead                    // after `(` or `,` in a port list
	qsPortAfterDir                // after input/output/inout
	qsPortAfterNet                // after wire/reg inside a port
	qsPortAfterRange              // after the `]` of a port width
	qsPortAfterId                 // `,` or `)`
	qsModSemi                     // `;` after the port list
	qsItemHead                    // module-item position
	qsDeclAfterKw                 // wire/reg/integer/genvar: signed, `[`, name
	qsDeclName                    // net-decl name after `,`
	qsDeclAfterId                 // `,` `;` `=` (net init) or `[` (array dim)
	qsDeclAfterArray              // `,` or `;` after an array dimension
	qsParamAfterKw                // parameter/localparam: signed/integer/`[`/name
	qsParamName                   // param name after `,`
	qsParamAfterId                // `=`
	qsLhs                         // assignment target: `[` index, `=`, or `<=`
	qsExpr                        // expression must start here
	qsExprAfter                   // after an operand: operator or terminator
	qsStmtHead                    // procedural-statement position
	qsCaseHead                    // case-item position: label, default, endcase
	qsCaseColon                   // `:` after default
	qsIfParen                     // `(` after if
	qsCaseParen                   // `(` after case/casez/casex
	qsForParen                    // `(` after for
	qsForInit                     // loop-variable name
	qsForStep                     // step-assignment name
	qsLhsConcatName               // lvalue inside a `{ ... }` target
	qsLhsConcatAfter              // `,` `}` or `[` after a concat lvalue
	qsAlwaysAt                    // `@` after always
	qsAlwaysEvent                 // `(` or `*` after `@`
	qsEventFirst                  // `*`, posedge, negedge, or a signal name
	qsEventHead                   // posedge, negedge, or a signal name (after or/,)
	qsEventAfterEdge              // signal name after posedge/negedge
	qsEventAfterSig               // `or`, `,`, or `)`
	qsEventClose                  // `)` after `@(*`
)

// Bracket kinds: why a paren/bracket/brace was opened, which determines the
// state restored at its close and which separators are legal inside it.
const (
	bkExpr   uint8 = iota // grouping paren in an expression
	bkConcat              // `{ ... }` concatenation
	bkIndex               // `[ ... ]` select (one range colon allowed)
	bkWidth               // `[ ... ]` declaration width (one colon allowed)
	bkPorts               // module port list
	bkIf                  // if condition
	bkCase                // case subject
	bkFor                 // for header (exactly two `;`)
	bkEvent               // @( ... ) event list
)

// Frame kinds for the construct stack.
const (
	fModule uint8 = iota
	fBegin
	fCase
)

// Pending-statement markers for dangling-else resolution: every `if` whose
// condition closed pushes pIfThen; completing its arm turns that into
// pElseAllowed (an `else` may bind now); consuming the `else` turns it into
// pElse, popped when the else-arm completes.
const (
	pIfThen uint8 = iota + 1
	pElseAllowed
	pElse
)

// Declaration kinds: which declarations take an initializer or an array
// dimension.
const (
	dkNone     uint8 = iota
	dkNet            // wire/reg/integer/genvar (init allowed)
	dkPortItem       // non-ANSI input/output/inout item (no init)
)

type qBracket struct {
	kind  uint8
	ret   uint8 // state restored when this bracket closes
	close byte  // expected closing byte
	tern  uint8 // pending `?` at this depth
	colon bool  // range colon already seen (bkIndex/bkWidth)
	semis uint8 // `;` count (bkFor)
}

// qscan is the whole validator state, the lexer included; it lives on the
// caller's stack, so a QuickCheck call performs no heap allocation.
type qscan struct {
	st        uint8
	declKind  uint8
	portStyle uint8 // 0 undecided, 1 plain `(a, b)`, 2 ANSI `(input a, ...)`
	inLabel   bool  // scanning a case-label expression
	selOK     bool  // previous expression token was a selectable identifier
	needStmt  bool  // a statement body is mandatory (if/else/for/always arm)
	lhsProc   bool  // current LHS may use `<=` (procedural context)
	baseTern  uint8
	modules   int

	frames  [64]uint8
	fBase   [64]uint8 // pending-stack watermark at each frame's entry
	nf      int
	bracket [64]qBracket
	nb      int
	pending [64]uint8 // pIfThen/pElseAllowed/pElse
	np      int

	lx Lexer
}

func (q *qscan) top() uint8 { return q.frames[q.nf-1] }

// pBase returns the pending-stack watermark of the innermost frame: entries
// below it belong to enclosing statements and must not be disturbed.
func (q *qscan) pBase() int {
	if q.nf == 0 {
		return 0
	}
	return int(q.fBase[q.nf-1])
}

// complete records that a statement just finished: the innermost pending
// if-arm becomes else-eligible, and finished else-arms unwind outward.
func (q *qscan) complete() {
	for base := q.pBase(); q.np > base; {
		switch q.pending[q.np-1] {
		case pIfThen:
			q.pending[q.np-1] = pElseAllowed
			return
		case pElse:
			q.np--
		default:
			return
		}
	}
}

// clearElse discards else-eligible ifs when the next token is not `else`
// (the if simply had no else-arm), unwinding any outer arms that thereby
// complete.
func (q *qscan) clearElse() {
	for q.np > q.pBase() && q.pending[q.np-1] == pElseAllowed {
		q.np--
		q.complete()
	}
}

// takeElse consumes an `else` if one may bind here.
func (q *qscan) takeElse() bool {
	if q.np > q.pBase() && q.pending[q.np-1] == pElseAllowed {
		q.pending[q.np-1] = pElse
		q.needStmt = true
		q.st = qsStmtHead
		return true
	}
	return false
}

// headState returns the statement-position state for the innermost frame
// and resets per-statement expression bookkeeping.
func (q *qscan) headState() uint8 {
	q.declKind = dkNone
	q.baseTern = 0
	q.inLabel = false
	if q.nf == 0 {
		return qsTop
	}
	switch q.top() {
	case fBegin:
		return qsStmtHead
	case fCase:
		return qsCaseHead
	default:
		return qsItemHead
	}
}

func (q *qscan) push(f uint8) bool {
	if q.nf >= len(q.frames) {
		return false
	}
	q.frames[q.nf] = f
	q.fBase[q.nf] = uint8(q.np)
	q.nf++
	return true
}

func (q *qscan) pushBracket(b qBracket) bool {
	if q.nb >= len(q.bracket) {
		return false
	}
	q.bracket[q.nb] = b
	q.nb++
	return true
}

// Token classes the statement machine reads: what quickClass makes of a
// Kind, and classifyWord of a word. The zero class is suspect, so a Kind
// quickClass does not list is outside the subset.
const (
	tSuspect uint8 = iota // anything outside the subset
	tIdent
	tNumber
	tString
	tLParen
	tRParen
	tLBrack
	tRBrack
	tLBrace
	tRBrace
	tSemi
	tColon
	tComma
	tQuestion
	tEq    // =
	tLE    // <= (comparison or non-blocking assign)
	tBinOp // strictly binary operators
	tAmbig // + - & | ^ ~^ ^~ (binary or unary/reduction)
	tUnary // ~ ! ~& ~|
	tAt
	tStar // * (binary, or the @(*) wildcard)
	// Keywords the validator understands.
	tKwModule
	tKwEndmodule
	tKwBegin
	tKwEnd
	tKwIf
	tKwElse
	tKwCase
	tKwEndcase
	tKwDefault
	tKwFor
	tKwAlways
	tKwInitial
	tKwAssign
	tKwNet   // wire reg
	tKwVar   // integer genvar
	tKwParam // parameter localparam
	tKwPort  // input output inout
	tKwSigned
	tKwEdge // posedge negedge
	tKwOr
)

// quickClass maps a token kind to its class. Identifiers and keywords take
// theirs from classifyWord instead. System names, `#`, `.`, `+:`, `-:` and
// `->` are outside the subset; ARROW, the last Kind, is listed so that the
// table covers every Kind.
var quickClass = [...]uint8{
	IDENT: tIdent, NUMBER: tNumber, STRING: tString,
	LPAREN: tLParen, RPAREN: tRParen, LBRACK: tLBrack, RBRACK: tRBrack,
	LBRACE: tLBrace, RBRACE: tRBrace, SEMI: tSemi, COLON: tColon,
	COMMA: tComma, QUESTION: tQuestion, EQ: tEq, LE: tLE, AT: tAt, STAR: tStar,
	PLUS: tAmbig, MINUS: tAmbig, AND: tAmbig, OR: tAmbig, XOR: tAmbig,
	XNOR: tAmbig,
	NOT:  tUnary, TILD: tUnary, NAND: tUnary, NOR: tUnary,
	SLASH: tBinOp, PERCENT: tBinOp, POW: tBinOp, LAND: tBinOp, LOR: tBinOp,
	EQEQ: tBinOp, NEQ: tBinOp, CASEEQ: tBinOp, CASENE: tBinOp, LT: tBinOp,
	GT: tBinOp, GE: tBinOp, SHL: tBinOp, SHR: tBinOp, ASHL: tBinOp,
	ASHR: tBinOp, ARROW: tSuspect,
}

func (q *qscan) run() bool {
	q.st = qsTop
	for {
		k, start := q.lx.scan()
		tok := quickClass[k]
		switch k {
		case EOF:
			return q.lx.err == nil && q.st == qsTop && q.nf == 0 && q.nb == 0 && q.modules > 0
		case IDENT, KEYWORD:
			tok = q.lx.word
		case NUMBER:
			if f, _ := literalFault(q.lx.src[start:q.lx.off]); f != litOK {
				return false
			}
		}
		if tok == tSuspect || !q.step(tok) {
			return false
		}
	}
}

// step advances the statement machine by one token.
func (q *qscan) step(tok uint8) bool {
	switch q.st {
	case qsTop:
		if tok == tKwModule {
			if !q.push(fModule) {
				return false
			}
			q.st = qsModName
			return true
		}
		return false

	case qsModName:
		if tok == tIdent {
			q.st = qsModAfterName
			return true
		}
		return false

	case qsModAfterName:
		switch tok {
		case tLParen:
			q.st = qsPortHead
			q.portStyle = 0
			return q.pushBracket(qBracket{kind: bkPorts, ret: qsModSemi, close: ')'})
		case tSemi:
			q.st = qsItemHead
			return true
		}
		return false

	case qsPortHead:
		switch tok {
		case tKwPort:
			if q.portStyle == 1 {
				return false // plain list `(a, b)` cannot switch to ANSI
			}
			q.portStyle = 2
			q.st = qsPortAfterDir
			return true
		case tIdent: // plain port, or ANSI continuation `input a, b`
			if q.portStyle == 0 {
				q.portStyle = 1
			}
			q.st = qsPortAfterId
			return true
		}
		return false

	case qsPortAfterDir:
		switch tok {
		case tKwNet:
			q.st = qsPortAfterNet
			return true
		case tKwSigned:
			return true
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkWidth, ret: qsPortAfterRange, close: ']'})
		case tIdent:
			q.st = qsPortAfterId
			return true
		}
		return false

	case qsPortAfterNet:
		switch tok {
		case tKwSigned:
			return true
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkWidth, ret: qsPortAfterRange, close: ']'})
		case tIdent:
			q.st = qsPortAfterId
			return true
		}
		return false

	case qsPortAfterRange:
		if tok == tIdent {
			q.st = qsPortAfterId
			return true
		}
		return false

	case qsPortAfterId:
		switch tok {
		case tComma:
			q.st = qsPortHead
			return true
		case tRParen:
			return q.closeBracket(')')
		}
		return false

	case qsModSemi:
		if tok == tSemi {
			q.st = qsItemHead
			return true
		}
		return false

	case qsItemHead:
		if tok == tKwElse { // arm of a bodyless `always @(*) if ...`
			return q.takeElse()
		}
		q.clearElse()
		switch tok {
		case tKwEndmodule:
			if q.needStmt || q.nf == 0 || q.top() != fModule || q.np != q.pBase() {
				return false
			}
			q.nf--
			q.modules++
			q.st = q.headState()
			return true
		case tKwNet, tKwVar:
			q.declKind = dkNet
			q.st = qsDeclAfterKw
			return true
		case tKwPort: // non-ANSI port item
			q.declKind = dkPortItem
			q.st = qsDeclAfterKw
			return true
		case tKwParam:
			q.st = qsParamAfterKw
			return true
		case tKwAssign:
			q.lhsProc = false
			q.st = qsForInit // expects the target name, same shape as a loop init
			return true
		case tKwAlways:
			q.st = qsAlwaysAt
			return true
		case tKwInitial:
			q.needStmt = true
			q.st = qsStmtHead
			return true
		}
		return false

	case qsDeclAfterKw:
		switch tok {
		case tKwSigned:
			return true
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkWidth, ret: qsDeclName, close: ']'})
		case tIdent:
			q.st = qsDeclAfterId
			return true
		}
		return false

	case qsDeclName:
		if tok == tIdent {
			q.st = qsDeclAfterId
			return true
		}
		return false

	case qsDeclAfterId:
		switch tok {
		case tComma:
			q.st = qsDeclName
			return true
		case tSemi:
			q.st = q.headState()
			return true
		case tEq:
			if q.declKind == dkPortItem {
				return false
			}
			q.st = qsExpr
			return true
		case tLBrack: // memory: `reg [7:0] mem [0:15]`
			if q.declKind != dkNet {
				return false
			}
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkWidth, ret: qsDeclAfterArray, close: ']'})
		}
		return false

	case qsDeclAfterArray:
		switch tok {
		case tComma:
			q.st = qsDeclName
			return true
		case tSemi:
			q.st = q.headState()
			return true
		}
		return false

	case qsParamAfterKw:
		switch tok {
		case tKwSigned, tKwVar: // `parameter integer N`
			return true
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkWidth, ret: qsParamName, close: ']'})
		case tIdent:
			q.st = qsParamAfterId
			return true
		}
		return false

	case qsParamName:
		if tok == tIdent {
			q.st = qsParamAfterId
			return true
		}
		return false

	case qsParamAfterId:
		if tok == tEq {
			q.st = qsExpr
			return true
		}
		return false

	case qsLhs:
		switch tok {
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkIndex, ret: qsLhs, close: ']'})
		case tEq:
			q.st = qsExpr
			return true
		case tLE:
			if !q.lhsProc {
				return false
			}
			q.st = qsExpr
			return true
		}
		return false

	case qsExpr:
		q.selOK = tok == tIdent
		switch tok {
		case tIdent, tNumber, tString:
			q.st = qsExprAfter
			return true
		case tLParen:
			return q.pushBracket(qBracket{kind: bkExpr, ret: qsExprAfter, close: ')'})
		case tLBrace:
			return q.pushBracket(qBracket{kind: bkConcat, ret: qsExprAfter, close: '}'})
		case tUnary, tAmbig: // reduction or sign
			return true
		}
		return false

	case qsExprAfter:
		switch tok {
		case tBinOp, tAmbig, tStar, tLE:
			q.st = qsExpr
			return true
		case tEq:
			return false
		case tQuestion:
			if q.nb > 0 {
				b := &q.bracket[q.nb-1]
				if b.tern == 255 {
					return false
				}
				b.tern++
			} else {
				if q.baseTern == 255 {
					return false
				}
				q.baseTern++
			}
			q.st = qsExpr
			return true
		case tColon:
			return q.colon()
		case tLBrack:
			if !q.selOK {
				return false // selects bind to identifier primaries only
			}
			q.selOK = false
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkIndex, ret: qsExprAfter, close: ']'})
		case tRParen:
			return q.closeBracket(')')
		case tRBrack:
			return q.closeBracket(']')
		case tRBrace:
			return q.closeBracket('}')
		case tComma:
			return q.comma()
		case tSemi:
			return q.semi()
		}
		return false

	case qsStmtHead:
		if tok == tKwElse {
			return q.takeElse()
		}
		q.clearElse()
		q.lhsProc = true
		switch tok {
		case tIdent:
			q.needStmt = false
			q.st = qsLhs
			return true
		case tKwBegin:
			if !q.push(fBegin) {
				return false
			}
			q.needStmt = false
			q.st = qsStmtHead
			return true
		case tKwEnd:
			if q.needStmt || q.nf == 0 || q.top() != fBegin || q.np != q.pBase() {
				return false
			}
			q.nf--
			q.complete() // the begin/end block is itself a finished statement
			q.st = q.headState()
			return true
		case tKwIf:
			if q.np >= len(q.pending) {
				return false
			}
			q.needStmt = false
			q.pending[q.np] = pIfThen
			q.np++
			q.st = qsIfParen
			return true
		case tKwCase:
			q.needStmt = false
			q.st = qsCaseParen
			return true
		case tKwFor:
			q.needStmt = false
			q.st = qsForParen
			return true
		}
		return false

	case qsCaseHead:
		if tok == tKwElse { // arm of a bodyless `...: if ...` case item
			return q.takeElse()
		}
		q.clearElse()
		switch tok {
		case tIdent, tNumber:
			q.inLabel = true
			q.st = qsExprAfter
			return true
		case tKwDefault:
			q.st = qsCaseColon
			return true
		case tKwEndcase:
			if q.needStmt || q.nf == 0 || q.top() != fCase || q.np != q.pBase() {
				return false
			}
			q.nf--
			q.complete() // the case statement is itself a finished statement
			q.st = q.headState()
			return true
		}
		return false

	case qsCaseColon:
		if tok == tColon {
			q.needStmt = true
			q.st = qsStmtHead
			return true
		}
		return false

	case qsIfParen:
		if tok == tLParen {
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkIf, ret: qsStmtHead, close: ')'})
		}
		return false

	case qsCaseParen:
		if tok == tLParen {
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkCase, ret: qsCaseHead, close: ')'})
		}
		return false

	case qsForParen:
		if tok == tLParen {
			q.st = qsForInit
			return q.pushBracket(qBracket{kind: bkFor, ret: qsStmtHead, close: ')'})
		}
		return false

	case qsForInit, qsForStep:
		switch tok {
		case tIdent:
			q.lhsProc = false // blocking `=` only (for headers, assign targets)
			q.st = qsLhs
			return true
		case tLBrace:
			// Concat target: legal for assign and in both for-header
			// assignments (parseForAssign -> parseLValue handles `{`).
			q.lhsProc = false
			q.st = qsLhsConcatName
			return q.pushBracket(qBracket{kind: bkConcat, ret: qsLhs, close: '}'})
		}
		return false

	case qsLhsConcatName:
		if tok == tIdent {
			q.st = qsLhsConcatAfter
			return true
		}
		return false

	case qsLhsConcatAfter:
		switch tok {
		case tComma:
			q.st = qsLhsConcatName
			return true
		case tRBrace:
			return q.closeBracket('}')
		case tLBrack:
			q.st = qsExpr
			return q.pushBracket(qBracket{kind: bkIndex, ret: qsLhsConcatAfter, close: ']'})
		}
		return false

	case qsAlwaysAt:
		if tok == tAt {
			q.st = qsAlwaysEvent
			return true
		}
		return false

	case qsAlwaysEvent:
		switch tok {
		case tLParen:
			q.st = qsEventFirst
			return q.pushBracket(qBracket{kind: bkEvent, ret: qsStmtHead, close: ')'})
		case tStar: // bare `@*`
			q.st = qsStmtHead
			return true
		}
		return false

	case qsEventFirst:
		if tok == tStar { // `@(*)` — legal only as the sole event
			q.st = qsEventClose
			return true
		}
		fallthrough

	case qsEventHead:
		switch tok {
		case tKwEdge:
			q.st = qsEventAfterEdge
			return true
		case tIdent:
			q.st = qsEventAfterSig
			return true
		}
		return false

	case qsEventAfterEdge:
		if tok == tIdent {
			q.st = qsEventAfterSig
			return true
		}
		return false

	case qsEventAfterSig:
		switch tok {
		case tKwOr, tComma:
			q.st = qsEventHead
			return true
		case tRParen:
			return q.closeBracket(')')
		}
		return false

	case qsEventClose:
		if tok == tRParen {
			return q.closeBracket(')')
		}
		return false
	}
	return false
}

// colon resolves a `:` in expression position: a pending ternary, a range
// colon inside a select/width, or the end of a case label.
func (q *qscan) colon() bool {
	if q.nb > 0 {
		b := &q.bracket[q.nb-1]
		if b.tern > 0 {
			b.tern--
			q.st = qsExpr
			return true
		}
		if (b.kind == bkIndex || b.kind == bkWidth) && !b.colon {
			b.colon = true
			q.st = qsExpr
			return true
		}
		return false
	}
	if q.baseTern > 0 {
		q.baseTern--
		q.st = qsExpr
		return true
	}
	if q.inLabel {
		q.inLabel = false
		q.needStmt = true
		q.st = qsStmtHead
		return true
	}
	return false
}

// comma resolves a `,` in expression position, which QuickCheck takes only
// between the items of a concatenation. One that ends an initializer, as in
// `wire a = x, b = y;` or `parameter A = 1, B = 2;`, is suspect: no file of
// the generated world has one, so the parser decides them.
func (q *qscan) comma() bool {
	if q.nb == 0 || q.bracket[q.nb-1].kind != bkConcat || q.bracket[q.nb-1].tern != 0 {
		return false
	}
	q.st = qsExpr
	return true
}

func (q *qscan) semi() bool {
	if q.nb > 0 {
		b := &q.bracket[q.nb-1]
		if b.kind == bkFor && b.tern == 0 && b.semis < 2 {
			b.semis++
			if b.semis == 1 {
				q.st = qsExpr // loop condition
			} else {
				q.st = qsForStep
			}
			return true
		}
		return false
	}
	if q.inLabel || q.baseTern != 0 {
		return false
	}
	q.complete()
	q.st = q.headState()
	return true
}

func (q *qscan) closeBracket(c byte) bool {
	if q.nb == 0 {
		return false
	}
	b := q.bracket[q.nb-1]
	if b.close != c || b.tern != 0 {
		return false
	}
	if b.kind == bkFor && b.semis != 2 {
		return false
	}
	if b.kind == bkWidth && !b.colon {
		return false // declaration widths are always `[msb:lsb]`
	}
	q.nb--
	q.selOK = false // `(a)[0]` / `x[1][2]` selects stay with the parser
	q.st = b.ret
	if b.kind == bkIf || b.kind == bkFor || b.kind == bkEvent {
		q.needStmt = true // these heads demand a body statement
	}
	if b.kind == bkCase {
		if !q.push(fCase) {
			return false
		}
	}
	return true
}
