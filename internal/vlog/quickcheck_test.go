package vlog

import (
	"math/rand"
	"strings"
	"testing"

	"freehw/internal/corpus"
)

// quickCorpus draws a broad slice of generator output: canonical and noised
// modules of every family, trap variants, near-duplicates, and corrupted
// files — the exact population the curation syntax filter sees.
func quickCorpus() (good, bad []string) {
	rng := rand.New(rand.NewSource(7))
	for _, fam := range corpus.Families {
		for _, canon := range []bool{true, false} {
			m := corpus.Generate(rng, fam, canon)
			good = append(good, m.Source)
			good = append(good, corpus.CanonVariant(rng, m.Source))
			good = append(good, corpus.MutateIdentifiers(rng, m.Source))
			bad = append(bad, corpus.CorruptSyntax(rng, m.Source))
		}
	}
	// Multi-module files (the world concatenates modules into files).
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		sb.WriteString(corpus.Generate(rng, "", true).Source)
		sb.WriteString("\n\n")
	}
	good = append(good, sb.String())
	return good, bad
}

// The fast path must cover the generator population: every parseable file
// gets a definitive good verdict (that is the entire performance win), and
// no corrupted file ever does (that is the soundness obligation).
func TestQuickCheckAgreesOnCorpus(t *testing.T) {
	good, bad := quickCorpus()
	for _, src := range good {
		parseOK := Check(src) == nil
		qc := QuickCheck(src)
		if qc && !parseOK {
			t.Fatalf("false good verdict for parser-rejected source:\n%s", src)
		}
		if parseOK && !qc {
			t.Errorf("fast path missed a parseable corpus file (perf regression):\n%.120s", src)
		}
	}
	for _, src := range bad {
		if Check(src) == nil {
			t.Fatalf("corpus.CorruptSyntax produced a parseable file:\n%s", src)
		}
		if QuickCheck(src) {
			t.Fatalf("false good verdict for corrupted source:\n%s", src)
		}
	}
}

// QuickCheck claims definitive good verdicts only; constructs outside its
// validated subset must defer to the parser, never error out.
func TestQuickCheckSuspectFallsBackToParser(t *testing.T) {
	outside := []string{
		"`define W 8\nmodule m; wire [`W-1:0] x; endmodule", // directives
		"module m; initial $display(\"hi\"); endmodule",     // system tasks
		"module top; sub u1 (.a(1'b0)); endmodule",          // instantiation
		"module m; function f; input x; f = x; endfunction endmodule",
		"module m #(parameter W = 4) (input [W-1:0] a); endmodule",
		"module m; reg [7:0] mem [0:15]; endmodule",                      // memories
		"module m; parameter A = 1, B = 2; wire a = A, b = B; endmodule", // lists after an initializer
	}
	for _, src := range outside {
		if QuickCheck(src) {
			// A good verdict is only a bug if the parser disagrees.
			if err := Check(src); err != nil {
				t.Errorf("false good verdict for %q: parser says %v", src, err)
			}
		}
		if got, want := CheckFast(src) == nil, Check(src) == nil; got != want {
			t.Errorf("CheckFast diverged from Check on %q", src)
		}
	}
}

func TestCheckFastMatchesCheck(t *testing.T) {
	good, bad := quickCorpus()
	for _, src := range append(append([]string{}, good...), bad...) {
		fast := CheckFast(src) == nil
		full := Check(src) == nil
		if fast != full {
			t.Fatalf("CheckFast=%v Check=%v for:\n%.160s", fast, full, src)
		}
	}
	// And with the pre-check disabled, CheckFast degenerates to Check.
	SetQuickCheck(false)
	defer SetQuickCheck(true)
	if !QuickCheckEnabled() {
		for _, src := range good {
			if (CheckFast(src) == nil) != (Check(src) == nil) {
				t.Fatal("CheckFast diverged with QuickCheck disabled")
			}
		}
	} else {
		t.Fatal("SetQuickCheck(false) did not disable the fast path")
	}
}

// FuzzQuickCheck pins the soundness contract: a good verdict implies the
// full parser accepts. (The reverse direction is intentionally open — any
// construct outside the validated subset is merely suspicious.)
func FuzzQuickCheck(f *testing.F) {
	good, bad := quickCorpus()
	for _, s := range good {
		f.Add(s)
	}
	for _, s := range bad {
		f.Add(s)
	}
	for _, s := range trickySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if QuickCheck(src) {
			if err := Check(src); err != nil {
				t.Fatalf("QuickCheck said good, parser says %v for:\n%q", err, src)
			}
		}
	})
}
