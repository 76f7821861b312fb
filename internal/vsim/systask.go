package vsim

import (
	"fmt"

	"freehw/internal/vlog"
)

// sysTask executes a system task statement.
func (s *Simulator) sysTask(e env, st *vlog.SysTaskStmt) error {
	switch st.Name {
	case "$display", "$displayb", "$displayh", "$displayo":
		out, err := s.formatArgs(e, st.Args, defaultBase(st.Name))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, out)
		return nil
	case "$write", "$writeb", "$writeh", "$writeo":
		out, err := s.formatArgs(e, st.Args, defaultBase(st.Name))
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, out)
		return nil
	case "$strobe":
		// Evaluate at the end of the current time step.
		args := st.Args
		env2 := e
		s.strobes = append(s.strobes, func() {
			out, err := s.formatArgs(env2, args, 'd')
			if err != nil {
				s.fail(err)
				return
			}
			fmt.Fprintln(s.out, out)
		})
		return nil
	case "$monitor":
		s.monitors = []*monitorEntry{{e: e, args: st.Args, last: "\x00never"}}
		return nil
	case "$monitoron", "$monitoroff":
		return nil
	case "$finish", "$stop":
		s.finished = true // procExec.exec unwinds the process
		return nil
	case "$dumpfile", "$dumpvars", "$dumpon", "$dumpoff", "$dumpall",
		"$timeformat", "$printtimescale":
		return nil
	case "$readmemh", "$readmemb":
		return fmt.Errorf("%s is not supported (no file system in sandbox)", st.Name)
	case "$random", "$urandom":
		_ = s.rng.Uint32() // advance the stream, value discarded
		return nil
	}
	// Unknown system tasks are ignored, like most simulators' default
	// warning-only behavior; this keeps LLM-generated code gradeable.
	return nil
}

func defaultBase(name string) byte {
	switch name[len(name)-1] {
	case 'b':
		return 'b'
	case 'h':
		return 'h'
	case 'o':
		return 'o'
	}
	return 'd'
}

// runMonitors implements the $monitor postponed-region check. Per IEEE 1364
// §17.1, a change in $time alone must not retrigger the monitor, so the
// change key is computed with time-valued system functions masked out.
func (s *Simulator) runMonitors() {
	for _, m := range s.monitors {
		key, err := s.formatArgs(m.e, maskTimeArgs(m.args), 'd')
		if err != nil {
			s.fail(err)
			return
		}
		if key == m.last {
			continue
		}
		m.last = key
		out, err := s.formatArgs(m.e, m.args, 'd')
		if err != nil {
			s.fail(err)
			return
		}
		fmt.Fprintln(s.out, out)
	}
}

// maskTimeArgs replaces $time/$stime/$realtime calls with a constant so the
// monitor change detection ignores them.
func maskTimeArgs(args []vlog.Expr) []vlog.Expr {
	out := make([]vlog.Expr, len(args))
	for i, a := range args {
		if c, ok := a.(*vlog.Call); ok {
			switch c.Name {
			case "$time", "$stime", "$realtime":
				out[i] = &vlog.Number{Width: 1, A: []uint64{0}, B: []uint64{0}}
				continue
			}
		}
		out[i] = a
	}
	return out
}
