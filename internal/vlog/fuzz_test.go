package vlog

import (
	"math/rand"
	"testing"

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
}

// FuzzTokenize: the lexer must never panic, whatever the input. On
// success, every token must carry a position inside the source bounds.
func FuzzTokenize(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s)
	}
	for _, s := range trickySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		for _, tok := range toks {
			if tok.Pos.Line < 1 || tok.Pos.Col < 1 {
				t.Fatalf("token %q has invalid position %v", tok.Text, tok.Pos)
			}
		}
	})
}

// FuzzParse: the parser must never panic, and never return a nil file with
// a nil error.
func FuzzParse(f *testing.F) {
	for _, s := range corpusSeeds() {
		f.Add(s)
	}
	for _, s := range trickySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseFile(src)
		if err != nil {
			return
		}
		if file == nil {
			t.Fatal("nil file with nil error")
		}
	})
}
