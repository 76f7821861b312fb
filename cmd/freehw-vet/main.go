// Command freehw-vet machine-checks the repo's correctness conventions:
// determinism of anything derived from map iteration (mapord), the
// *Locked mutex discipline on every control-flow path (lockheld),
// lock/unlock balance and double-acquire freedom (lockbalance),
// one-snapshot-per-request RCU reads (rcusnap), durable-write errors that
// must reach a check on all paths (errflow), failpoint coverage of
// filesystem crash sites (failsafe), and the allocation/syscall hygiene
// of //freehw:hotpath code (hotpath). CI runs it over ./... and requires
// a clean exit; see internal/analysis for the analyzer suite and the
// marker/suppression syntax.
//
// Packages are analyzed in parallel (-workers, default GOMAXPROCS);
// findings are position-sorted after the fan-in, so output is
// byte-identical at any worker count.
//
// Usage:
//
//	freehw-vet [-json] [-workers n] [-analyzers mapord,lockheld,...] ./...
//
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"freehw/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, returning the exit
// status: findings go to stdout; the count, usage and errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("freehw-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	workers := fs.Int("workers", 0, "packages analyzed concurrently (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: freehw-vet [-json] [-workers n] [-analyzers names] packages...\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-11s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil { // Parse has printed it and the usage
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	analyzers, err := analysis.ByName(*list)
	if err != nil {
		fmt.Fprintln(stderr, "freehw-vet:", err)
		return 2
	}
	diags, npkgs, err := analysis.LoadAndRun(fs.Args(), analyzers, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "freehw-vet:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	findings := make([]analysis.Diagnostic, 0, len(diags))
	for _, d := range diags {
		// Report paths relative to the invocation directory — stable
		// across machines, so the -json artifact diffs cleanly.
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, d.File); err == nil {
				d.File = rel
			}
		}
		findings = append(findings, d)
	}
	analysis.Sort(findings)

	if *jsonOut {
		out := struct {
			Count    int                   `json:"count"`
			Findings []analysis.Diagnostic `json:"findings"`
		}{Count: len(findings), Findings: findings}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		for _, d := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "freehw-vet: %d finding(s) in %d package(s)\n", len(findings), npkgs)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
