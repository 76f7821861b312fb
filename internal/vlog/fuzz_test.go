package vlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"freehw/internal/corpus"
)

// corpusSeeds draws realistic Verilog from the corpus generator: one
// canonical and one noised module per design family, which covers every
// statement form the generator can emit.
func corpusSeeds() []string {
	rng := rand.New(rand.NewSource(1))
	var out []string
	for _, fam := range corpus.Families {
		out = append(out, corpus.Generate(rng, fam, true).Source)
		out = append(out, corpus.Generate(rng, fam, false).Source)
	}
	return out
}

// trickySeeds are hand-picked lexical edge cases: unterminated constructs,
// preprocessor forms, escaped identifiers, and malformed numbers.
var trickySeeds = []string{
	"",
	"module m; endmodule",
	"module",
	"/* unterminated block comment",
	"// line comment only",
	`"unterminated string`,
	`"escaped \" quote" module`,
	"`define FOO 1\nmodule m; endmodule",
	"`ifdef FOO\nmodule a; endmodule\n`else\nmodule b; endmodule\n`endif",
	"`ifdef X\n`ifdef Y\nmodule m; endmodule\n`endif",
	"`timescale 1ns/1ps\nmodule m; endmodule",
	"`undef FOO `endif `else",
	"\\escaped+identifier!@# module",
	"4'bxz01 12'hDEAD_beef 8'o777 'd42 3'b",
	"module m; assign x = 1'b; endmodule",
	"module m #(parameter P = ) (input a); endmodule",
	"module m(input [3:0); endmodule",
	"module m; always @(posedge) endmodule",
	"module m; initial begin end endmodule",
	"module m; case endcase endmodule",
	"module m; assign = ; endmodule",
	"module \x00\xff; endmodule",
	"module m; wire w = {,}; endmodule",
	"module m; generate for endgenerate endmodule",
	"module m; function f; endfunction endmodule",
	"module m(input a, output y); assign y = a ? : 1; endmodule",
	"module m; wire x = 1e999; endmodule",
	"module m; wire [3:0] x = 4'b\n  1010; initial $display(\"a\\\nb\", x); endmodule",
	"0'b1 70000'h1 8'b102 8'o78 'd1x 'dz 'd?? 12'h__ 1e 1e+ 1.5e3 1_0.2_5 99999999999999999999 18446744073709551615 8'hx 4'sb1z",
	selfMacro,
	mutualMacros,
	manyMacroUses,
}

// Macro files that only the expansion budget stops: a macro that expands
// to itself, two that expand to each other, and 32 000 uses of one macro
// in a 160 KB file, each use copying the rest of the file.
var (
	selfMacro     = "`define A `A\nmodule m; wire w = `A; endmodule\n"
	mutualMacros  = "`define A `B\n`define B `A\nmodule m; wire w = `A; endmodule\n"
	manyMacroUses = "`define W 1'b0\nmodule m; wire [31999:0] w = {" + strings.Repeat("`W , ", 31999) + "`W}; endmodule\n"
)

// FuzzTokenize holds the lexer to the reference lexer it replaced: the same
// tokens (kind, text and position, the final EOF included) and the same
// first error, message and position, on any input. Each NUMBER must also
// parse to the same value or error as under the reference literal parser.
// The last seed spells every reserved word once.
func FuzzTokenize(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s)
	}
	for _, s := range trickySeeds {
		f.Add(s)
	}
	var words []string
	for w := range refKeywords {
		words = append(words, w)
	}
	sort.Strings(words)
	f.Add(strings.Join(words, " ") + " \\module $module moduleX clk begin_ endx Table forkk")
	f.Fuzz(func(t *testing.T, src string) {
		l, ref := NewLexer(src), newRefLexer(src)
		for i := 0; ; i++ {
			got, want := l.Next(), ref.Next()
			if got != want {
				t.Fatalf("token %d: got %#v, want %#v", i, got, want)
			}
			if got.Kind == NUMBER {
				e, err := parseNumericToken(got)
				refE, refErr := refParseNumericToken(want)
				if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(e, refE) {
					t.Fatalf("literal %q: got %#v, %v; want %#v, %v", got.Text, e, err, refE, refErr)
				}
			}
			if got.Kind == EOF {
				break
			}
		}
		if got, want := fmt.Sprint(l.Err()), fmt.Sprint(ref.Err()); got != want {
			t.Fatalf("error: got %s, want %s", got, want)
		}
	})
}

// FuzzParse: the parser must never panic, never return a nil file with a
// nil error, and return a file's first lexical error wherever it lies,
// also behind a parse error, as the last seed has it.
func FuzzParse(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s)
	}
	for _, s := range trickySeeds {
		f.Add(s)
	}
	f.Add("module m; assign = ; endmodule\nmodule n; endmodule /* unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseFile(src)
		l := NewLexer(src)
		for l.Next().Kind != EOF {
		}
		if lexErr := l.Err(); lexErr != nil {
			if !reflect.DeepEqual(err, lexErr) {
				t.Fatalf("ParseFile = %v, want the lexical error %v", err, lexErr)
			}
			return
		}
		if err == nil && file == nil {
			t.Fatal("nil file with nil error")
		}
	})
}

// Check answers each macro reproducer with the expansion-budget error
// within a second.
func TestMacroExpansionBudget(t *testing.T) {
	for _, src := range []string{selfMacro, mutualMacros, manyMacroUses} {
		done := make(chan error, 1)
		go func() { done <- Check(src) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "macro expansion budget") {
				t.Errorf("Check(%.40q...) = %v, want the expansion budget error", src, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("Check(%.40q...) still running after 1 s", src)
		}
	}
}
