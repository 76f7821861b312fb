package vlog

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *SourceFile {
	t.Helper()
	f, err := ParseFile(src)
	if err != nil {
		t.Fatalf("ParseFile: %v\nsource:\n%s", err, src)
	}
	return f
}

func TestParseMinimalModule(t *testing.T) {
	f := mustParse(t, "module m; endmodule")
	if len(f.Modules) != 1 || f.Modules[0].Name != "m" {
		t.Fatalf("got %+v", f.Modules)
	}
}

func TestParseANSIPorts(t *testing.T) {
	f := mustParse(t, `
module adder (input wire [3:0] a, b, output reg [4:0] sum);
  always @(*) sum = a + b;
endmodule`)
	m := f.Modules[0]
	if len(m.Ports) != 3 {
		t.Fatalf("want 3 ports, got %d", len(m.Ports))
	}
	if m.Ports[0].Dir != "input" || m.Ports[1].Dir != "input" || m.Ports[2].Dir != "output" {
		t.Fatalf("port dirs wrong: %+v", m.Ports)
	}
	if m.Ports[2].Decl.Kind != DeclReg {
		t.Fatalf("sum should be reg")
	}
	if m.Ports[1].Decl.Vec == nil {
		t.Fatalf("b should inherit [3:0]")
	}
}

func TestParseNonANSIPorts(t *testing.T) {
	f := mustParse(t, `
module counter (clk, rst, q);
  input clk, rst;
  output [7:0] q;
  reg [7:0] q;
  always @(posedge clk or posedge rst)
    if (rst) q <= 8'd0;
    else q <= q + 1;
endmodule`)
	m := f.Modules[0]
	if m.Ports[2].Dir != "output" {
		t.Fatalf("q should be output, got %q", m.Ports[2].Dir)
	}
	if len(m.Items) != 1 {
		t.Fatalf("want 1 item, got %d", len(m.Items))
	}
	proc, ok := m.Items[0].(*Process)
	if !ok || proc.Kind != ProcAlways {
		t.Fatalf("want always process")
	}
	ev, ok := proc.Body.(*EventStmt)
	if !ok || len(ev.Events) != 2 || ev.Events[0].Edge != "posedge" {
		t.Fatalf("bad event control: %+v", proc.Body)
	}
}

func TestParseParameters(t *testing.T) {
	f := mustParse(t, `
module fifo #(parameter WIDTH = 8, parameter DEPTH = 16) (input clk);
  localparam AW = $clog2(DEPTH);
  wire [WIDTH-1:0] data;
  reg [WIDTH-1:0] mem [0:DEPTH-1];
endmodule`)
	m := f.Modules[0]
	if len(m.Params) != 3 {
		t.Fatalf("want 3 params, got %d", len(m.Params))
	}
	if !m.Params[2].IsLocal {
		t.Fatalf("AW should be localparam")
	}
	var mem *Decl
	for _, d := range m.Decls {
		if d.Name == "mem" {
			mem = d
		}
	}
	if mem == nil || mem.Arr == nil {
		t.Fatalf("mem should be an array decl")
	}
}

func TestParseExpressionsPrecedence(t *testing.T) {
	f := mustParse(t, `
module m(input [7:0] a, b, c, output [7:0] y);
  assign y = a + b * c;
endmodule`)
	ca := f.Modules[0].Items[0].(*ContAssign)
	add, ok := ca.RHS.(*Binary)
	if !ok || add.Op != PLUS {
		t.Fatalf("top op should be +, got %#v", ca.RHS)
	}
	mul, ok := add.Y.(*Binary)
	if !ok || mul.Op != STAR {
		t.Fatalf("rhs of + should be *, got %#v", add.Y)
	}
}

func TestParseTernaryAndConcat(t *testing.T) {
	f := mustParse(t, `
module m(input s, input [3:0] a, b, output [7:0] y);
  assign y = s ? {a, b} : {2{a}};
endmodule`)
	ca := f.Modules[0].Items[0].(*ContAssign)
	tern, ok := ca.RHS.(*Ternary)
	if !ok {
		t.Fatalf("want ternary, got %#v", ca.RHS)
	}
	if _, ok := tern.Then.(*Concat); !ok {
		t.Fatalf("then should be concat")
	}
	if _, ok := tern.Else.(*Repl); !ok {
		t.Fatalf("else should be replication")
	}
}

func TestParseSelects(t *testing.T) {
	f := mustParse(t, `
module m(input [31:0] x, input [4:0] i, output [7:0] y, output b);
  assign y = x[15:8];
  assign b = x[i];
  wire [7:0] w = x[i +: 8];
  wire [7:0] v = x[i -: 8];
endmodule`)
	m := f.Modules[0]
	ps := m.Items[0].(*ContAssign).RHS.(*PartSelect)
	if ps.Mode != PartConst {
		t.Fatalf("want const part select")
	}
	if _, ok := m.Items[1].(*ContAssign).RHS.(*Index); !ok {
		t.Fatalf("want index")
	}
	var wDecl, vDecl *Decl
	for _, d := range m.Decls {
		switch d.Name {
		case "w":
			wDecl = d
		case "v":
			vDecl = d
		}
	}
	if wDecl.Init.(*PartSelect).Mode != PartUp {
		t.Fatalf("w should use +:")
	}
	if vDecl.Init.(*PartSelect).Mode != PartDown {
		t.Fatalf("v should use -:")
	}
}

func TestParseCaseStatement(t *testing.T) {
	f := mustParse(t, `
module m(input [1:0] sel, input [3:0] a, b, c, d, output reg [3:0] y);
  always @* begin
    casez (sel)
      2'b00: y = a;
      2'b01: y = b;
      2'b1?: y = c;
      default: y = d;
    endcase
  end
endmodule`)
	blk := f.Modules[0].Items[0].(*Process).Body.(*EventStmt).Stmt.(*Block)
	cs := blk.Stmts[0].(*CaseStmt)
	if cs.Kind != CaseZ {
		t.Fatalf("want casez")
	}
	if len(cs.Items) != 4 {
		t.Fatalf("want 4 case items, got %d", len(cs.Items))
	}
	if cs.Items[3].Exprs != nil {
		t.Fatalf("last item should be default")
	}
}

func TestParseInstances(t *testing.T) {
	f := mustParse(t, `
module top(input clk, output [7:0] q);
  wire w1, w2;
  counter #(.WIDTH(8)) u0 (.clk(clk), .q(q));
  counter u1 (clk, w1), u2 (clk, w2);
  and g0 (w1, clk, w2);
endmodule`)
	m := f.Modules[0]
	insts := 0
	gates := 0
	for _, it := range m.Items {
		if inst, ok := it.(*Instance); ok {
			if inst.Gate {
				gates++
			} else {
				insts++
			}
		}
	}
	if insts != 3 || gates != 1 {
		t.Fatalf("want 3 module insts + 1 gate, got %d + %d", insts, gates)
	}
	u0 := m.Items[0].(*Instance)
	if len(u0.Params) != 1 || u0.Params[0].Name != "WIDTH" {
		t.Fatalf("u0 params wrong: %+v", u0.Params)
	}
}

func TestParseFunction(t *testing.T) {
	f := mustParse(t, `
module m(input [7:0] x, output [7:0] y);
  function [7:0] double;
    input [7:0] v;
    begin
      double = v << 1;
    end
  endfunction
  assign y = double(x);
endmodule`)
	m := f.Modules[0]
	if len(m.Funcs) != 1 || m.Funcs[0].Name != "double" {
		t.Fatalf("function not parsed: %+v", m.Funcs)
	}
	if len(m.Funcs[0].Inputs) != 1 {
		t.Fatalf("want 1 input")
	}
}

func TestParseGenerateFor(t *testing.T) {
	f := mustParse(t, `
module m #(parameter N = 4) (input [N-1:0] a, b, output [N-1:0] y);
  genvar i;
  generate
    for (i = 0; i < N; i = i + 1) begin : bitwise
      assign y[i] = a[i] ^ b[i];
    end
  endgenerate
endmodule`)
	m := f.Modules[0]
	gf, ok := m.Items[0].(*GenFor)
	if !ok {
		t.Fatalf("want GenFor, got %#v", m.Items[0])
	}
	if gf.Label != "bitwise" || gf.Genvar != "i" {
		t.Fatalf("GenFor fields wrong: %+v", gf)
	}
}

func TestParseTestbenchConstructs(t *testing.T) {
	mustParse(t, `
module tb;
  reg clk = 0;
  reg [7:0] d;
  integer i;
  always #5 clk = ~clk;
  initial begin
    d = 8'h00;
    for (i = 0; i < 10; i = i + 1) begin
      @(posedge clk);
      d <= d + 1;
      $display("t=%0t d=%h", $time, d);
    end
    #10 $finish;
  end
endmodule`)
}

func TestParseDirectives(t *testing.T) {
	mustParse(t, "`timescale 1ns/1ps\n`define WIDTH 8\nmodule m(input [`WIDTH-1:0] a, output [`WIDTH-1:0] y);\n  assign y = a;\nendmodule\n")
}

func TestParseIfdef(t *testing.T) {
	f := mustParse(t, "`define FAST\nmodule m;\n`ifdef FAST\n  wire x;\n`else\n  wire y;\n`endif\nendmodule\n")
	m := f.Modules[0]
	if len(m.Decls) != 1 || m.Decls[0].Name != "x" {
		t.Fatalf("ifdef selection wrong: %+v", m.Decls)
	}
}

func TestParseNumbers(t *testing.T) {
	cases := []struct {
		lit   string
		width int
		val   uint64
		xz    bool
	}{
		{"8'hFF", 8, 255, false},
		{"4'b1010", 4, 10, false},
		{"12'o777", 12, 511, false},
		{"16'd1234", 16, 1234, false},
		{"'h10", 32, 16, false},
		{"42", 32, 42, false},
		{"8'b1xz0", 8, 0, true},
		{"4'bz", 4, 0, true},
		{"8'hx", 8, 0, true},
		{"32'hDEAD_BEEF", 32, 0xDEADBEEF, false},
	}
	for _, c := range cases {
		e, err := parseNumericToken(Token{Kind: NUMBER, Text: c.lit})
		if err != nil {
			t.Fatalf("%s: %v", c.lit, err)
		}
		n := e.(*Number)
		if n.Width != c.width {
			t.Errorf("%s: width=%d want %d", c.lit, n.Width, c.width)
		}
		v, ok := n.Uint64()
		if c.xz {
			if ok {
				t.Errorf("%s: expected x/z bits", c.lit)
			}
		} else if !ok || v != c.val {
			t.Errorf("%s: val=%d ok=%v want %d", c.lit, v, ok, c.val)
		}
	}
}

func TestParseNumberXExtension(t *testing.T) {
	e, err := parseNumericToken(Token{Kind: NUMBER, Text: "8'bx1"})
	if err != nil {
		t.Fatal(err)
	}
	n := e.(*Number)
	// Leading x extends: bits 1..7 must be x.
	for i := 1; i < 8; i++ {
		if (n.B[0]>>uint(i))&1 != 1 {
			t.Fatalf("bit %d should be x, planes A=%x B=%x", i, n.A[0], n.B[0])
		}
	}
	if n.A[0]&1 != 1 || n.B[0]&1 != 0 {
		t.Fatalf("bit 0 should be 1")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                 // no module
		"module m",                         // unterminated
		"module m; wire; endmodule",        // missing name
		"module m; assign = 1; endmodule",  // missing lvalue
		"module m; always begin endmodule", // unterminated block
		"module m; wire w = ; endmodule",   // missing expr
		"module m; fork join endmodule",    // unsupported
		"module m(input a; endmodule",      // bad port list
		"module m; x = 8'q3; endmodule",    // bad base
		"module m; initial x = 1 + ; endmodule",
		"module 9bad; endmodule",           // bad name
		"module m; primitive p; endmodule", // unsupported construct
	}
	for _, src := range bad {
		if err := Check(src); err == nil {
			t.Errorf("Check(%q) should fail", src)
		}
	}
}

func TestStripComments(t *testing.T) {
	src := `// Copyright (c) Intel. All rights reserved.
module m; /* proprietary
   block */ wire x; // eol
endmodule`
	out := StripComments(src)
	if strings.Contains(out, "Copyright") || strings.Contains(out, "proprietary") || strings.Contains(out, "eol") {
		t.Fatalf("comments not removed:\n%s", out)
	}
	if !strings.Contains(out, "module m;") || !strings.Contains(out, "wire x;") {
		t.Fatalf("code damaged:\n%s", out)
	}
	if err := Check(out); err != nil {
		t.Fatalf("stripped source no longer parses: %v", err)
	}
}

func TestStripCommentsPreservesStrings(t *testing.T) {
	src := `module m; initial $display("// not a comment /* either */"); endmodule`
	out := StripComments(src)
	if !strings.Contains(out, `// not a comment /* either */`) {
		t.Fatalf("string literal damaged:\n%s", out)
	}
}

func TestHeaderComment(t *testing.T) {
	src := "`timescale 1ns/1ps\n// Copyright (c) 2021 MegaChip Corp.\n// All rights reserved. Proprietary and confidential.\nmodule m; endmodule"
	h := HeaderComment(src)
	if !strings.Contains(h, "All rights reserved") {
		t.Fatalf("header missing: %q", h)
	}
	if strings.Contains(h, "module") {
		t.Fatalf("header should stop at code: %q", h)
	}
}

func TestFirstFraction(t *testing.T) {
	src := strings.Repeat("word ", 1000)
	out := FirstFraction(src, 0.2, 64)
	if got := len(Words(out)); got != 64 {
		t.Fatalf("want 64-word cap, got %d", got)
	}
	out = FirstFraction("a b c d e f g h i j", 0.2, 64)
	if got := len(Words(out)); got != 2 {
		t.Fatalf("want 2 words (20%% of 10), got %d", got)
	}
}

// Property: StripComments is idempotent and never grows the input.
func TestStripCommentsProperties(t *testing.T) {
	fn := func(s string) bool {
		out := StripComments(s)
		return len(out) <= len(s) && StripComments(out) == out
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: a lexer loop never panics and reaches EOF on arbitrary input,
// and past EOF, after an error too, it stays at EOF.
func TestTokenizeRobustness(t *testing.T) {
	fn := func(s string) bool {
		l := NewLexer(s)
		for l.Next().Kind != EOF {
		}
		return l.Next().Kind == EOF
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseRealisticUART(t *testing.T) {
	mustParse(t, `
// Simple UART transmitter.
module uart_tx #(
    parameter CLKS_PER_BIT = 87
) (
    input        clk,
    input        rst_n,
    input        tx_start,
    input  [7:0] tx_data,
    output reg   tx,
    output reg   tx_busy
);
  localparam IDLE  = 3'd0;
  localparam START = 3'd1;
  localparam DATA  = 3'd2;
  localparam STOP  = 3'd3;

  reg [2:0] state;
  reg [15:0] clk_cnt;
  reg [2:0] bit_idx;
  reg [7:0] data_reg;

  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      state   <= IDLE;
      tx      <= 1'b1;
      tx_busy <= 1'b0;
      clk_cnt <= 16'd0;
      bit_idx <= 3'd0;
    end else begin
      case (state)
        IDLE: begin
          tx <= 1'b1;
          if (tx_start) begin
            data_reg <= tx_data;
            tx_busy  <= 1'b1;
            state    <= START;
            clk_cnt  <= 16'd0;
          end
        end
        START: begin
          tx <= 1'b0;
          if (clk_cnt < CLKS_PER_BIT - 1) clk_cnt <= clk_cnt + 1;
          else begin
            clk_cnt <= 16'd0;
            state   <= DATA;
          end
        end
        DATA: begin
          tx <= data_reg[bit_idx];
          if (clk_cnt < CLKS_PER_BIT - 1) clk_cnt <= clk_cnt + 1;
          else begin
            clk_cnt <= 16'd0;
            if (bit_idx < 7) bit_idx <= bit_idx + 1;
            else begin
              bit_idx <= 3'd0;
              state   <= STOP;
            end
          end
        end
        STOP: begin
          tx <= 1'b1;
          if (clk_cnt < CLKS_PER_BIT - 1) clk_cnt <= clk_cnt + 1;
          else begin
            tx_busy <= 1'b0;
            state   <= IDLE;
          end
        end
        default: state <= IDLE;
      endcase
    end
  end
endmodule`)
}

// Every recursive production shares one nesting bound: a file nested 900
// deep in any of them parses, and one nested past maxNesting is a syntax
// error at once, whatever the production — expressions (parenthesised,
// concatenated, called, selected, ?: branches), unary and ** chains,
// statements (begin, if, case, loops), lvalue concatenations and generate
// items. (internal/serve's TestSyntaxDeepNesting posts the million-level
// nests that used to overflow the goroutine stack.)
func TestDeepNestingIsAnError(t *testing.T) {
	nests := []struct {
		name       string
		open, core string
		close      string
		wrap       func(string) string
	}{
		{"parens", "(", "a", ")", func(e string) string { return "module m(input a, output y); assign y = " + e + "; endmodule" }},
		{"concat", "{", "a", "}", func(e string) string { return "module m(input a, output y); assign y = " + e + "; endmodule" }},
		{"call", "f(", "a", ")", func(e string) string {
			return "module m(input a, output y); function f; input x; f = x; endfunction assign y = " + e + "; endmodule"
		}},
		{"select", "a[", "0", "]", func(e string) string { return "module m(input [1:0] a, output y); assign y = " + e + "; endmodule" }},
		{"ternary", "a ? a : ", "a", "", func(e string) string { return "module m(input a, output y); assign y = " + e + "; endmodule" }},
		{"unary", "~", "a", "", func(e string) string { return "module m(input a, output y); assign y = " + e + "; endmodule" }},
		{"power", "a ** ", "a", "", func(e string) string { return "module m(input a, output y); assign y = " + e + "; endmodule" }},
		{"begin", "begin ", "x = 1;", " end", func(s string) string { return "module m; reg x; initial " + s + " endmodule" }},
		{"if", "if (x) ", "x = 1;", "", func(s string) string { return "module m; reg x; initial " + s + " endmodule" }},
		{"case", "case (x) 1: ", "x = 1;", " endcase", func(s string) string { return "module m; reg x; initial " + s + " endmodule" }},
		{"while", "while (x) ", "x = 0;", "", func(s string) string { return "module m; reg x; initial " + s + " endmodule" }},
		{"lvalue", "{", "x", "}", func(l string) string { return "module m; reg x; initial " + l + " = 1; endmodule" }},
		{"generate", "if (1) begin ", "wire w;", " end", func(g string) string { return "module m; generate " + g + " endgenerate endmodule" }},
		{"generate region", "generate ", "wire w;", " endgenerate", func(g string) string { return "module m; " + g + " endmodule" }},
	}
	nest := func(open, core, close string, n int) string {
		return strings.Repeat(open, n) + core + strings.Repeat(close, n)
	}
	for _, c := range nests {
		if _, err := ParseFile(c.wrap(nest(c.open, c.core, c.close, 900))); err != nil {
			t.Errorf("%s nested 900 deep: %v", c.name, err)
		}
		for _, n := range []int{maxNesting, 100_000} {
			_, err := ParseFile(c.wrap(nest(c.open, c.core, c.close, n)))
			if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
				t.Errorf("%s nested %d deep: err = %v, want the nesting bound", c.name, n, err)
			}
		}
	}
}
