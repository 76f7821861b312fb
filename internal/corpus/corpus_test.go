package corpus

import (
	"math/rand"
	"strings"
	"testing"

	"freehw/internal/dedup"
	"freehw/internal/license"
	"freehw/internal/similarity"
	"freehw/internal/vlog"
)

// Every family generator must produce parseable Verilog, canonical or not.
func TestGeneratedModulesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fam := range Families {
		for trial := 0; trial < 20; trial++ {
			m := Generate(rng, fam, trial%2 == 0)
			if m.Family != fam {
				t.Fatalf("family mismatch: %s vs %s", m.Family, fam)
			}
			if err := vlog.Check(m.Source); err != nil {
				t.Fatalf("%s (trial %d) does not parse: %v\n%s", fam, trial, err, m.Source)
			}
		}
	}
}

func TestCorruptSyntaxBreaksParsing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	broken := 0
	for i := 0; i < 40; i++ {
		m := Generate(rng, "", false)
		if vlog.Check(CorruptSyntax(rng, m.Source)) != nil {
			broken++
		}
	}
	if broken < 35 {
		t.Fatalf("corruption should almost always break parsing: %d/40", broken)
	}
}

func TestProtectedCorpusProperties(t *testing.T) {
	files := BuildProtectedCorpus(5, 100)
	if len(files) != 100 {
		t.Fatalf("got %d files", len(files))
	}
	seen := map[string]bool{}
	anyKey := false
	for _, f := range files {
		if seen[f.Body] {
			t.Fatal("protected bodies must be distinct")
		}
		seen[f.Body] = true
		if err := vlog.Check(f.Source); err != nil {
			t.Fatalf("protected file %s does not parse: %v", f.Name, err)
		}
		hdr := vlog.HeaderComment(f.Source)
		if r := license.ScanHeader(hdr); !r.Protected {
			t.Fatalf("protected header not detected: %q", hdr)
		}
		if f.HasEmbeddedKey {
			anyKey = true
			if hits := license.ScanBody(f.Body); len(hits) == 0 {
				t.Fatalf("embedded key not detectable in %s", f.Name)
			}
		}
	}
	if !anyKey {
		t.Fatal("some protected files should embed key material")
	}
}

// Protected files should be mutually distinctive (no template collapse),
// and — the benchmark's false-positive guard — ordinary open-source modules
// must never score at or above the violation threshold against them.
func TestProtectedCorpusDistinctive(t *testing.T) {
	files := BuildProtectedCorpus(6, 40)
	vecs := make([]similarity.Vector, len(files))
	names := make([]string, len(files))
	texts := make([]string, len(files))
	for i, f := range files {
		vecs[i] = similarity.NewVector(vlog.StripComments(f.Body))
		names[i] = f.Name
		texts[i] = vlog.StripComments(f.Body)
	}
	// Same-family files share structural tokens (wire [31:0] chains etc.),
	// which cosine-TF counts; what must never happen is two files being
	// near-verbatim copies of each other.
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			if s := similarity.Cosine(vecs[i], vecs[j]); s >= 0.95 {
				t.Fatalf("protected files %d and %d nearly identical: %.3f", i, j, s)
			}
		}
	}
	corpus := similarity.NewCorpus(names, texts)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 60; i++ {
		m := Generate(rng, "", i%3 == 0)
		if best := corpus.Best(m.Source); best.Score >= similarity.DefaultThreshold {
			t.Fatalf("ordinary %s module scores %.3f vs protected %s (false positive)",
				m.Family, best.Score, best.Name)
		}
	}
}

func TestWorldProportions(t *testing.T) {
	cfg := DefaultConfig(0.2) // 2,600 Verilog files: fast but statistically stable
	cfg.ProtectedPoolSize = 200
	w := BuildWorld(cfg)
	s := w.Stats()

	if s.VerilogFiles < 2500 {
		t.Fatalf("too few Verilog files: %d", s.VerilogFiles)
	}
	lf := float64(s.LicensedVFiles) / float64(s.VerilogFiles)
	if lf < 0.35 || lf > 0.60 {
		t.Fatalf("licensed file share %.3f out of range (target ~0.468)", lf)
	}
	pf := float64(s.ProtectedFiles) / float64(s.VerilogFiles)
	if pf < 0.004 || pf > 0.02 {
		t.Fatalf("protected share %.4f out of range (target ~0.01)", pf)
	}
	if s.JunkFiles == 0 {
		t.Fatal("world must contain non-Verilog junk")
	}
	if s.BrokenFiles == 0 {
		t.Fatal("world must contain syntax-broken files")
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := BuildWorld(DefaultConfig(0.02))
	b := BuildWorld(DefaultConfig(0.02))
	if len(a.Repos) != len(b.Repos) {
		t.Fatal("repo counts differ")
	}
	for i := range a.Repos {
		if a.Repos[i].FullName() != b.Repos[i].FullName() || len(a.Repos[i].Files) != len(b.Repos[i].Files) {
			t.Fatalf("repo %d differs", i)
		}
		for j := range a.Repos[i].Files {
			if a.Repos[i].Files[j].Content != b.Repos[i].Files[j].Content {
				t.Fatalf("file %d/%d differs", i, j)
			}
		}
	}
}

// The duplicate structure must put dedup removal in the neighborhood of the
// paper's 62.5% (on the licensed subset).
func TestWorldDuplicationLevel(t *testing.T) {
	cfg := DefaultConfig(0.2)
	cfg.ProtectedPoolSize = 100
	w := BuildWorld(cfg)
	idx := dedup.NewIndex(dedup.Options{Seed: 1})
	total := 0
	for _, r := range w.Repos {
		if !license.Accepted(r.License) {
			continue
		}
		for _, f := range r.Files {
			if !f.IsVerilog {
				continue
			}
			total++
			idx.Add(f.Path, f.Content)
		}
	}
	removed := 1 - float64(idx.Len())/float64(total)
	if removed < 0.45 || removed > 0.75 {
		t.Fatalf("dedup removal %.3f out of range (target ~0.625)", removed)
	}
	t.Logf("dedup removal: %.3f (paper: 0.625)", removed)
}

func TestWorldMegaFile(t *testing.T) {
	cfg := DefaultConfig(0.3)
	cfg.ProtectedPoolSize = 50
	w := BuildWorld(cfg)
	maxLen := 0
	for _, r := range w.Repos {
		for _, f := range r.Files {
			if len(f.Content) > maxLen {
				maxLen = len(f.Content)
			}
		}
	}
	if maxLen < 200000 {
		t.Fatalf("expected an extreme-outlier file, max len %d", maxLen)
	}
}

func TestGeneralText(t *testing.T) {
	docs := GeneralText(3, 20)
	if len(docs) != 20 {
		t.Fatalf("got %d docs", len(docs))
	}
	joined := strings.Join(docs, " ")
	if strings.Contains(joined, "posedge") || strings.Contains(joined, "endmodule") {
		t.Fatal("general text must not contain Verilog")
	}
}

func TestLicenseHeadersSurviveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, l := range license.AllAccepted() {
		for i := 0; i < 10; i++ {
			h := licenseHeader(rng, l)
			if r := license.ScanHeader(h); r.Protected {
				t.Fatalf("open-source header flagged protected (%s): %q (%v)", l, h, r.Reasons)
			}
		}
	}
}

func TestLicenseTextsClassify(t *testing.T) {
	for _, l := range license.AllAccepted() {
		if got := license.Classify(licenseText(l)); got != l {
			t.Errorf("licenseText(%s) classifies as %s", l, got)
		}
	}
}

// Trap variants must stay parseable and, for the assign-based families the
// rewrite table targets, actually change the behavior-relevant text. (A few
// tail families have no rewrite and pass through unchanged — acceptable, as
// the variant fraction is a statistical knob, not an invariant.)
func TestCanonVariantParses(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	changed := 0
	for i := 0; i < 100; i++ {
		fam := Families[i%len(Families)]
		m := Generate(rng, fam, true)
		v := CanonVariant(rng, m.Source)
		if err := vlog.Check(v); err != nil {
			t.Fatalf("variant of %s does not parse: %v\n%s", fam, err, v)
		}
		if v != m.Source {
			changed++
		}
	}
	if changed < 65 {
		t.Fatalf("variants rarely change the source: %d/100", changed)
	}
}

// Canonical module generation must be deterministic per (family, width).
func TestGenerateCanonicalDeterminism(t *testing.T) {
	for _, fam := range Families {
		a := GenerateCanonical(fam, 8)
		b := GenerateCanonical(fam, 8)
		if a.Source != b.Source {
			t.Fatalf("%s canonical generation is not deterministic", fam)
		}
	}
}

// Non-canonical instances must usually differ from the canonical interface
// (the port-name synonym mechanism behind Table II's calibration).
func TestNonCanonicalPortVariation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	same := 0
	const trials = 60
	canon := GenerateCanonical("adder", 8)
	for i := 0; i < 60; i++ {
		m := genAdder(rng, false)
		if strings.Contains(m.Source, "output [8:0] sum") &&
			strings.Contains(m.Source, "input  [7:0] a") {
			same++
		}
	}
	_ = canon
	if same > trials/2 {
		t.Fatalf("non-canonical adders too often canonical: %d/%d", same, trials)
	}
}
