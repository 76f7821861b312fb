// Package vlog implements a lexer, parser, and AST for a practical subset of
// Verilog-2005 (IEEE 1364): synthesizable RTL plus the behavioral constructs
// needed for testbenches (delays, event controls, system tasks).
//
// The parser pulls each token from the lexer as it needs it, so a parse
// holds the AST and two tokens, never a token per source byte. Check runs
// the same grammar without building the AST and returns ParseFile's error:
// the simulator, the grader, the curation funnel and the server take one
// token path and one grammar.
//
// The package plays the role Icarus Verilog plays in the paper's curation
// pipeline (a file is retained iff it parses) and provides the AST consumed
// by the event-driven simulator in internal/vsim.
package vlog

import "fmt"

// Kind classifies a lexical token.
type Kind int

// Token kinds. Operators use one kind per spelling so the parser can switch
// on exact operator identity.
const (
	EOF Kind = iota
	IDENT
	SYSNAME // $display, $time, ...
	NUMBER  // 12, 4'b10x0, 8'hff, 1.5
	STRING  // "..."

	KEYWORD

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACK   // [
	RBRACK   // ]
	LBRACE   // {
	RBRACE   // }
	SEMI     // ;
	COLON    // :
	COMMA    // ,
	DOT      // .
	AT       // @
	HASH     // #
	QUESTION // ?
	EQ       // =

	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	POW     // **

	NOT  // !
	TILD // ~
	AND  // &
	OR   // |
	XOR  // ^
	XNOR // ^~ or ~^
	NAND // ~&
	NOR  // ~|

	LAND // &&
	LOR  // ||

	EQEQ   // ==
	NEQ    // !=
	CASEEQ // ===
	CASENE // !==
	LT     // <
	LE     // <=
	GT     // >
	GE     // >=

	SHL  // <<
	SHR  // >>
	ASHL // <<<
	ASHR // >>>

	PLUSCOLON  // +:
	MINUSCOLON // -:
	ARROW      // ->
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", SYSNAME: "system name", NUMBER: "number",
	STRING: "string", KEYWORD: "keyword",
	LPAREN: "(", RPAREN: ")", LBRACK: "[", RBRACK: "]", LBRACE: "{", RBRACE: "}",
	SEMI: ";", COLON: ":", COMMA: ",", DOT: ".", AT: "@", HASH: "#",
	QUESTION: "?", EQ: "=",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%", POW: "**",
	NOT: "!", TILD: "~", AND: "&", OR: "|", XOR: "^", XNOR: "^~",
	NAND: "~&", NOR: "~|", LAND: "&&", LOR: "||",
	EQEQ: "==", NEQ: "!=", CASEEQ: "===", CASENE: "!==",
	LT: "<", LE: "<=", GT: ">", GE: ">=",
	SHL: "<<", SHR: ">>", ASHL: "<<<", ASHR: ">>>",
	PLUSCOLON: "+:", MINUSCOLON: "-:", ARROW: "->",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos locates a token in its source file.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based, in bytes
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string // raw text (for IDENT, KEYWORD, NUMBER, STRING value, SYSNAME)
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, KEYWORD, NUMBER, SYSNAME:
		return t.Text
	case STRING:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Kind.String()
	}
}

// isKeyword is the package's one keyword table: it reports whether an
// identifier-shaped word is a reserved word, which the lexer makes a
// KEYWORD. Reserved words the parser does not support still lex as
// keywords, so that the parser can produce a precise "unsupported
// construct" error.
func isKeyword(s string) bool {
	switch s {
	case "module", "endmodule", "begin", "end", "if", "else",
		"case", "casez", "casex", "endcase", "default", "for",
		"always", "initial", "assign", "wire", "reg", "integer", "genvar",
		"parameter", "localparam", "input", "output", "inout", "signed",
		"posedge", "negedge", "or",
		"macromodule", "real", "time", "realtime",
		"tri", "tri0", "tri1", "triand", "trior", "trireg", "wand", "wor",
		"supply0", "supply1", "defparam", "deassign", "force", "release",
		"while", "repeat", "forever", "edge",
		"function", "endfunction", "task", "endtask", "automatic",
		"generate", "endgenerate", "scalared", "vectored",
		"wait", "disable", "event", "fork", "join",
		"and", "nand", "nor", "not", "xor", "xnor",
		"buf", "bufif0", "bufif1", "notif0", "notif1",
		"specify", "endspecify", "specparam",
		"primitive", "endprimitive", "table", "endtable",
		"pullup", "pulldown",
		"cmos", "rcmos", "nmos", "pmos", "rnmos", "rpmos",
		"tran", "rtran", "tranif0", "tranif1", "rtranif0", "rtranif1",
		"strong0", "strong1", "pull0", "pull1", "weak0", "weak1",
		"highz0", "highz1", "small", "medium", "large":
		return true
	}
	return false
}

// gatePrimitives are the built-in gate types that may be instantiated like
// modules: `and g1 (y, a, b);`.
var gatePrimitives = map[string]bool{
	"and": true, "nand": true, "or": true, "nor": true, "xor": true,
	"xnor": true, "buf": true, "not": true,
}
