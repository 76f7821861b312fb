package similarity_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freehw/internal/corpus"
	"freehw/internal/similarity"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verdicts.golden")

// writeVerdicts records every query's Best and TopK(5) against snap, one
// match per line as name / index / raw float64 bits — any change to a
// score's last bit, to a tie-break or to live-rank indexing is a diff.
func writeVerdicts(buf *bytes.Buffer, label string, snap *similarity.Snapshot, queries []string) {
	fmt.Fprintf(buf, "# %s: %d docs, %d segments\n", label, snap.Len(), snap.Segments())
	line := func(q int, kind string, m similarity.Match) {
		fmt.Fprintf(buf, "q%02d %s %q %d %016x\n", q, kind, m.Name, m.Index, math.Float64bits(m.Score))
	}
	for q, text := range queries {
		line(q, "best", snap.Best(text))
		for _, m := range snap.TopK(text, 5) {
			line(q, "top5", m)
		}
	}
}

// TestGoldenVerdicts pins the scorer's output on bench/'s protected corpus
// shape: 500 protected files audited by 64 candidates of audit_cold's two
// kinds (a protected file with one line replaced, a novel generated
// module; the near-duplicate share is raised from 10% to 25% so both sides
// of the pruned search's bail-out decision see queries). Recorded for one
// segment, and for four streamed segments with ~10% of documents
// tombstoned next to a one-segment rebuild of the survivors — the last two
// must agree line for line, and all three must match the checked-in file,
// which was generated before the Corpus → Segment/Snapshot refactor.
func TestGoldenVerdicts(t *testing.T) {
	const seed, nDocs, nQueries, nSegs = 20250913, 500, 64, 4
	pf := corpus.BuildProtectedCorpus(seed, nDocs)
	names := make([]string, len(pf))
	texts := make([]string, len(pf))
	for i, p := range pf {
		names[i], texts[i] = p.Name, p.Source
	}
	rng := rand.New(rand.NewSource(seed + 1))
	queries := make([]string, nQueries)
	for i := range queries {
		if rng.Intn(4) == 0 {
			lines := strings.Split(texts[rng.Intn(len(texts))], "\n")
			lines[rng.Intn(len(lines))] = fmt.Sprintf("  // local edit %d", rng.Int63())
			queries[i] = strings.Join(lines, "\n")
		} else {
			queries[i] = corpus.Generate(rng, "", false).Source
		}
	}

	var got bytes.Buffer
	writeVerdicts(&got, "one segment", similarity.SealCorpus(names, texts, 1), queries)

	snap := new(similarity.Snapshot)
	for s := 0; s < nSegs; s++ {
		b := similarity.NewSegmentBuilder()
		for i := s * nDocs / nSegs; i < (s+1)*nDocs/nSegs; i++ {
			b.Add(names[i], texts[i])
		}
		snap = snap.Append(b.Seal())
	}
	var removed, liveNames, liveTexts []string
	for i, n := range names {
		if rng.Intn(10) == 0 {
			removed = append(removed, n)
		} else {
			liveNames = append(liveNames, n)
			liveTexts = append(liveTexts, texts[i])
		}
	}
	snap, _ = snap.Remove(removed)
	var segmented, rebuilt bytes.Buffer
	writeVerdicts(&segmented, "tombstoned", snap, queries)
	writeVerdicts(&rebuilt, "tombstoned", similarity.SealCorpus(liveNames, liveTexts, 1), queries)
	// Only the header line (segment count) may differ between the two.
	_, segBody, _ := strings.Cut(segmented.String(), "\n")
	_, rebBody, _ := strings.Cut(rebuilt.String(), "\n")
	if segBody != rebBody {
		t.Fatalf("four tombstoned segments and their one-segment rebuild disagree:\nsegmented:\n%s\nrebuilt:\n%s", segBody, rebBody)
	}
	got.Write(segmented.Bytes())

	path := filepath.Join("testdata", "verdicts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			if gl[i] != w {
				t.Fatalf("verdicts diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], w)
			}
		}
		t.Fatalf("verdicts diverged from %s: golden has %d extra lines", path, len(wl)-len(gl))
	}
}
