package main

import (
	"bytes"
	"strings"
	"testing"
)

// run parses its own flag set and reports through its streams and its return
// value: a bad command line is status 2 with the reason and the usage on
// stderr and nothing on stdout, -h is the usage and status 0, and a clean
// package (this one) is status 0 — silent, or an empty JSON report.
func TestRunParsesFlagsAndReturnsTheExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name           string
		args           []string
		status         int
		stdout, stderr string // substrings; "" means the stream stays empty
	}{
		{"unknown flag", []string{"-nope", "."}, 2, "", "flag provided but not defined: -nope"},
		{"bad flag value", []string{"-workers", "many", "."}, 2, "", "invalid value"},
		{"no packages", []string{"-json"}, 2, "", "usage: freehw-vet"},
		{"unknown analyzer", []string{"-analyzers", "mapord,nosuch", "."}, 2, "", "nosuch"},
		{"no such package", []string{"./nosuchdir"}, 2, "", "freehw-vet:"},
		{"help", []string{"-h"}, 0, "", "lockbalance"},
		{"clean json", []string{"-json", "."}, 0, `"findings": []`, ""},
		{"clean", []string{"-workers", "1", "-analyzers", "mapord,errflow", "."}, 0, "", ""}, // no -json left over from the run before: no global flag set
	} {
		var stdout, stderr bytes.Buffer
		if got := run(tc.args, &stdout, &stderr); got != tc.status {
			t.Errorf("%s: status %d, want %d (stderr %q)", tc.name, got, tc.status, stderr.String())
		}
		for _, s := range []struct {
			stream    string
			got, want string
		}{{"stdout", stdout.String(), tc.stdout}, {"stderr", stderr.String(), tc.stderr}} {
			if (s.want == "") != (s.got == "") || !strings.Contains(s.got, s.want) {
				t.Errorf("%s: %s is %q, want it to contain %q", tc.name, s.stream, s.got, s.want)
			}
		}
	}
}
