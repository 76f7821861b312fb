// Command vsim parses and simulates a Verilog file with the library's
// event-driven simulator — a standalone replacement for the role Icarus
// Verilog plays in the paper.
//
// Usage:
//
//	vsim [-top tb] [-time 100000] [-seed 1] [-stats] design.v [more.v ...]
//
// All files are concatenated into one source; the top module (default: the
// last module defined) is elaborated and run until $finish, event
// starvation, or the time limit. $display output goes to stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"freehw/internal/vlog"
	"freehw/internal/vsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "vsim:", err)
		}
		os.Exit(1)
	}
}

// run is main with its arguments and streams passed in: what the design
// prints goes to stdout; the exit line, -stats and flag errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("vsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		top   = fs.String("top", "", "top module (default: last module in the file)")
		limit = fs.Uint64("time", 1_000_000, "simulation time limit")
		seed  = fs.Int64("seed", 1, "$random seed")
		stats = fs.Bool("stats", false, "print signal values at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("usage: vsim [-top module] file.v [more.v ...]")
	}
	var src []byte
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		src = append(src, data...)
		src = append(src, '\n')
	}
	f, err := vlog.ParseFile(string(src))
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	name := *top
	if name == "" {
		name = f.Modules[len(f.Modules)-1].Name
	}
	d, err := vsim.Elaborate(f, name, nil)
	if err != nil {
		return fmt.Errorf("elaborate: %w", err)
	}
	sim := vsim.New(d, vsim.Options{Seed: *seed, Output: stdout})
	defer sim.Close()
	if err := sim.Run(*limit); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	fmt.Fprintf(stderr, "vsim: %s finished at t=%d ($finish=%v)\n", name, sim.Time(), sim.Finished())
	if *stats {
		names := make([]string, 0, len(d.Top.Signals))
		for sname := range d.Top.Signals {
			names = append(names, sname)
		}
		sort.Strings(names)
		for _, sname := range names {
			fmt.Fprintf(stderr, "  %s = %s\n", sname, d.Top.Signals[sname].Val)
		}
	}
	return nil
}
