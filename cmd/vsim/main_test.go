package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The benches under testdata, with the command line each header comment
// names and what vsim itself says on stderr: the exit line, and the top's
// signals under -stats. Between them they reach functions, tasks, generate
// for and if, parameter overrides, named and positional connections, gate
// primitives, delays, a non-ANSI port list, memories, casez, every $display
// format, $monitor, $strobe, $random, $finish, event starvation, the time
// limit, compiler directives, signed arithmetic and hierarchical names.
var benches = []struct {
	name   string
	args   []string
	stderr string
}{
	{"counter", []string{"testdata/counter.v", "testdata/counter_tb.v"},
		"vsim: tb finished at t=116 ($finish=true)\n"},
	{"alu", []string{"testdata/alu_tb.v"},
		"vsim: tb finished at t=16 ($finish=false)\n"},
	{"ripple", []string{"-stats", "testdata/ripple_tb.v"},
		"vsim: tb finished at t=6 ($finish=true)\n" +
			"  a = 11001000\n  b = 01100100\n  cin = 0\n  cout = 1\n  cout4 = 0\n" +
			"  errors = 00000000000000000000000000000000\n  sum = 00101100\n  sum4 = 00001100\n"},
	{"fifo", []string{"-seed", "7", "-top", "fifo_tb", "-time", "2000", "testdata/fifo_tb.v"},
		"vsim: fifo_tb finished at t=2000 ($finish=false)\n"},
	{"datapath", []string{"testdata/datapath_tb.v"},
		"vsim: tb finished at t=76 ($finish=true)\n"},
}

// TestBenchGoldens pins what each bench prints: testdata/<name>.golden is
// the stdout of `vsim <args>`.
func TestBenchGoldens(t *testing.T) {
	for _, b := range benches {
		var out, errOut bytes.Buffer
		if err := run(b.args, &out, &errOut); err != nil {
			t.Errorf("vsim %v: %v", b.args, err)
			continue
		}
		path := filepath.Join("testdata", b.name+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("vsim %v printed:\n%s\nwant %s:\n%s", b.args, out.String(), path, want)
		}
		if errOut.String() != b.stderr {
			t.Errorf("vsim %v said on stderr:\n%s\nwant:\n%s", b.args, errOut.String(), b.stderr)
		}
	}
}

// The bench carried over from the deleted examples/verilog_sim passes.
func TestCounterBenchPasses(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(benches[0].args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.String(), "PASS: counter behaves\n") {
		t.Fatalf("the counter bench did not pass:\n%s", out.String())
	}
}

// $random is a function of -seed and of nothing else.
func TestSeedChoosesTheRandomStream(t *testing.T) {
	fifo := func(seed string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-seed", seed, "-top", "fifo_tb", "-time", "2000", "testdata/fifo_tb.v"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "PASS: fifo order holds") {
			t.Fatalf("-seed %s: the fifo bench did not pass:\n%s", seed, out.String())
		}
		return out.String()
	}
	seven := fifo("7")
	if fifo("7") != seven {
		t.Fatal("two runs at -seed 7 differ")
	}
	if fifo("8") == seven {
		t.Fatal("-seed 7 and -seed 8 drove the same stimulus")
	}
}

func TestBadCommandLineIsAnErrorAndPrintsNothing(t *testing.T) {
	broken := filepath.Join(t.TempDir(), "broken.v")
	if err := os.WriteFile(broken, []byte("module m; assign = ; endmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: vsim"},
		{[]string{"-vcd", "testdata/counter.v"}, "flag provided but not defined: -vcd"},
		{[]string{"testdata/missing.v"}, "no such file"},
		{[]string{broken}, "parse:"},
		{[]string{"-top", "nowhere", "testdata/counter.v"}, "elaborate:"},
		{[]string{"testdata/counter_tb.v"}, "elaborate:"}, // the bench without its design
	} {
		var out, errOut bytes.Buffer
		err := run(tc.args, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("vsim %v = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("vsim %v was rejected yet printed:\n%s", tc.args, out.String())
		}
	}
}
