package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// repro runs the command and returns what it printed.
func repro(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, errOut.String())
	}
	return out.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// blocks cuts a report at its "\n=====" headings: one string per section,
// in print order, that concatenate to the report.
func blocks(t *testing.T, report string) []string {
	t.Helper()
	parts := strings.Split(report, "\n=====")
	if parts[0] != "" {
		t.Fatalf("report does not start with a heading:\n%s", report)
	}
	for i := range parts {
		parts[i] = "\n=====" + parts[i]
	}
	return parts[1:]
}

// TestGolden pins what the command prints: testdata/scale0.08.golden is the
// stdout of `repro -scale 0.08` at the commit before run existed.
func TestGolden(t *testing.T) {
	if got, want := repro(t, "-scale", "0.08"), golden(t, "scale0.08.golden"); got != want {
		t.Fatalf("repro -scale 0.08 moved off its golden:\n%s\nwant:\n%s", got, want)
	}
}

// A section named alone prints its block of the golden and nothing else —
// so table2, which then trains two models instead of eight, reports the
// same rows.
func TestEachSectionAlonePrintsItsBlock(t *testing.T) {
	want := blocks(t, golden(t, "scale0.08.golden"))
	for i, name := range []string{"funnel", "table1", "fig2", "fig3", "table2"} {
		if got := repro(t, "-scale", "0.08", name); got != want[i] {
			t.Errorf("repro -scale 0.08 %s printed:\n%s\nwant its block of the golden:\n%s", name, got, want[i])
		}
	}
}

func TestAblationsGolden(t *testing.T) {
	if got, want := repro(t, "-scale", "0.08", "ablations"), golden(t, "ablations.golden"); got != want {
		t.Fatalf("repro -scale 0.08 ablations moved off its golden:\n%s\nwant:\n%s", got, want)
	}
}

// A block depends on neither the worker count nor the order the sections are
// named in: Table II running first leaves Figure 3's models as they were.
func TestSameBlocksForAnyWorkersAndOrder(t *testing.T) {
	small := []string{"-scale", "0.08", "-evaln", "2", "-problems", "12"}
	inOrder := blocks(t, repro(t, append(small, "-workers", "1")...))
	swapped := blocks(t, repro(t, append(small, "-workers", "4", "funnel", "table1", "fig2", "table2", "fig3")...))
	if len(inOrder) != 5 || len(swapped) != 5 {
		t.Fatalf("%d and %d blocks, want 5 and 5", len(inOrder), len(swapped))
	}
	swapped[3], swapped[4] = swapped[4], swapped[3]
	for i := range inOrder {
		if inOrder[i] != swapped[i] {
			t.Errorf("-workers 1, fig3 before table2:\n%s\n-workers 4, table2 before fig3:\n%s", inOrder[i], swapped[i])
		}
	}
}

// train saves the models; fig3 and table2 with -model load one back and
// report for FreeV what the in-process zoo run — the golden — reports.
func TestSavedModelReportsWhatTheZooRunReports(t *testing.T) {
	dir := t.TempDir()
	report := repro(t, "-scale", "0.08", "train", "-out", dir)
	if n := strings.Count(report, "held-out CE"); n != 2 {
		t.Fatalf("train printed %d training reports, want 2:\n%s", n, report)
	}
	if _, err := os.Stat(filepath.Join(dir, baseModel+".lm")); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, freeV+".lm")
	got := repro(t, "-scale", "0.08", "fig3", "table2", "-model", saved, "-v")

	zoo := golden(t, "scale0.08.golden")
	bar := regexp.MustCompile(`(?m)^FreeV-Llama3\.1 +tuned +(\d+)/(\d+) +([0-9.]+)%`).FindStringSubmatch(zoo)
	if bar == nil {
		t.Fatal("the golden has no Figure 3 bar for FreeV")
	}
	want := []string{"\nFreeV-Llama3.1: " + bar[1] + "/" + bar[2] + " violations (" + bar[3] + "%)\n"}
	for _, line := range strings.SplitAfter(zoo, "\n") {
		if strings.HasPrefix(line, "This Work (measured) "+freeV) || strings.HasPrefix(line, "  "+freeV+": solved") {
			want = append(want, "\n"+line)
		}
	}
	if len(want) != 3 {
		t.Fatalf("the golden has %d of FreeV's two Table II lines", len(want)-1)
	}
	for _, line := range want {
		if !strings.Contains(got, line) {
			t.Errorf("-model %s lacks the zoo run's line %q:\n%s", saved, line, got)
		}
	}
	if strings.Contains(got, baseModel) {
		t.Errorf("-model %s reports on the base model too:\n%s", saved, got)
	}
	if n := strings.Count(got, "\n  prompt "); n == 0 || strconv.Itoa(n) != bar[1] {
		t.Errorf("-v listed %d violations, the count line says %s:\n%s", n, bar[1], got)
	}
}

func TestBadCommandLineIsAnErrorAndPrintsNothing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fig4"}, `unknown section "fig4"`},
		{[]string{"-scale", "0.08", "funnel", "figure3"}, `unknown section "figure3"`},
		{[]string{"-skip-eval"}, "flag provided but not defined: -skip-eval"},
		{[]string{"fig3", "-zoo"}, "flag provided but not defined: -zoo"},
		{[]string{"fig3", "-model", filepath.Join(t.TempDir(), "none.lm")}, "no such file"},
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v was rejected yet printed:\n%s", tc.args, out.String())
		}
	}
}
