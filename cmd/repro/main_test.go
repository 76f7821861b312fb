package main

import (
	"bytes"
	"os"
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

// TestGolden pins what the command prints: testdata/scale0.08.golden is the
// stdout of `repro -scale 0.08` at the commit before run existed.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/scale0.08.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := repro(t, "-scale", "0.08"); got != string(want) {
		t.Fatalf("repro -scale 0.08 moved off its golden:\n%s\nwant:\n%s", got, want)
	}
}
