package vsim

import (
	"fmt"

	"freehw/internal/vlog"
)

// run is the body of a process: the iter.Seq that start hands to iter.Pull.
// The scheduler steps the process by calling its next, and the process runs
// until it parks in yield or ends, so exactly one of {scheduler, one
// process} runs at a time. When Close calls stop, the suspended yield returns
// false and the process unwinds.
func (p *proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		r := recover()
		p.done = true
		switch v := r.(type) {
		case nil, procKilled, procFinished:
			// normal endings
		case procFailed:
			p.sim.fail(fmt.Errorf("%s: %w", p.name, v.err))
		default:
			panic(r)
		}
	}()
	px := &procExec{p: p}
	spins := 0
	first := true
	for {
		px.parks = 0
		px.budget = maxFuncSteps
		body := p.body
		if first && p.kind == vlog.ProcAlways {
			// Combinational always blocks (@* or pure value-change lists)
			// evaluate once at time zero, matching always_comb semantics;
			// otherwise literal-initialized inputs would never trigger them.
			if ev, ok := body.(*vlog.EventStmt); ok && combinationalEvent(p.scope, ev) {
				body = ev.Stmt
			}
		}
		first = false
		e := env{d: p.sim.d, sim: p.sim, scope: p.scope, frame: p.procFrame()}
		if err := px.exec(e, body); err != nil {
			if _, ok := err.(errDisabled); !ok {
				panic(procFailed{err})
			}
		}
		if p.kind != vlog.ProcAlways {
			return
		}
		if px.parks == 0 {
			spins++
			if spins > 2 {
				panic(procFailed{fmt.Errorf("always block has no timing control (infinite zero-delay loop)")})
			}
		} else {
			spins = 0
		}
	}
}

// combinationalEvent reports whether ev is @* or a sensitivity list with no
// edge qualifiers and no named events (those are notification waits, not
// combinational logic).
func combinationalEvent(sc *Scope, ev *vlog.EventStmt) bool {
	if ev.Star {
		return true
	}
	if len(ev.Events) == 0 {
		return false
	}
	for _, e := range ev.Events {
		if e.Edge != "" {
			return false
		}
		if id, ok := e.X.(*vlog.Ident); ok {
			if sig, found := sc.lookupSignal(id.Name); found && sig.isEvent {
				return false
			}
		}
	}
	return true
}

func (p *proc) procFrame() *frame {
	if p.frame == nil {
		p.frame = &frame{vars: map[string]*Value{}}
	}
	return p.frame
}

// park suspends the process in yield until the scheduler next calls its
// next. A false yield means Close stopped the process: unwind it.
func (p *proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// procExec is the one statement interpreter. It runs a process's body and
// the tasks that process calls (p != nil), and a function body (p == nil),
// which may not wait, call a task or make a nonblocking assignment. budget
// bounds the statements run between two timing controls (a function gets
// one budget per call); depth bounds task nesting.
type procExec struct {
	p      *proc
	parks  int
	budget int
	depth  int
}

func (px *procExec) exec(e env, st vlog.Stmt) error {
	if st == nil {
		return nil
	}
	px.budget--
	if px.budget <= 0 {
		return e.errf("%d statements without a timing control (infinite loop?)", maxFuncSteps)
	}
	if px.p == nil {
		switch st.(type) {
		case *vlog.DelayStmt, *vlog.EventStmt, *vlog.WaitStmt, *vlog.ForeverStmt, *vlog.TaskCallStmt:
			return e.errf("statement %T not allowed inside a function", st)
		}
	}
	switch s := st.(type) {
	case *vlog.NullStmt:
		return nil

	case *vlog.Block:
		// Block-locals are static: initialized once per process, or per call.
		for _, dcl := range s.Decls {
			if _, exists := e.frame.vars[dcl.Name]; !exists {
				v, err := e.d.newVar(e.scope, dcl)
				if err != nil {
					return err
				}
				e.frame.vars[dcl.Name] = v
			}
		}
		for _, sub := range s.Stmts {
			if err := px.exec(e, sub); err != nil {
				if dis, ok := err.(errDisabled); ok && dis.name == s.Name {
					return nil // disable of this named block: exit it
				}
				return err
			}
		}
		return nil

	case *vlog.AssignStmt:
		return px.assign(e, s)

	case *vlog.IfStmt:
		cv, err := eval(e, s.Cond, 0)
		if err != nil {
			return err
		}
		if cv.IsTrue() {
			return px.exec(e, s.Then)
		}
		return px.exec(e, s.Else)

	case *vlog.CaseStmt:
		sel, err := eval(e, s.Expr, 0)
		if err != nil {
			return err
		}
		var def vlog.Stmt
		for _, item := range s.Items {
			if item.Exprs == nil {
				def = item.Body
				continue
			}
			for _, ix := range item.Exprs {
				iv, err := eval(e, ix, 0)
				if err != nil {
					return err
				}
				if caseMatch(s.Kind, sel, iv) {
					return px.exec(e, item.Body)
				}
			}
		}
		return px.exec(e, def)

	case *vlog.ForStmt:
		if err := px.exec(e, s.Init); err != nil {
			return err
		}
		for {
			cv, err := eval(e, s.Cond, 0)
			if err != nil {
				return err
			}
			if !cv.IsTrue() {
				return nil
			}
			if err := px.exec(e, s.Body); err != nil {
				return err
			}
			if err := px.exec(e, s.Post); err != nil {
				return err
			}
		}

	case *vlog.WhileStmt:
		for {
			cv, err := eval(e, s.Cond, 0)
			if err != nil {
				return err
			}
			if !cv.IsTrue() {
				return nil
			}
			if err := px.exec(e, s.Body); err != nil {
				return err
			}
		}

	case *vlog.RepeatStmt:
		cv, err := eval(e, s.Count, 0)
		if err != nil {
			return err
		}
		n, ok := cv.Int64()
		if !ok || n < 0 {
			return nil
		}
		for i := int64(0); i < n; i++ {
			if err := px.exec(e, s.Body); err != nil {
				return err
			}
		}
		return nil

	case *vlog.ForeverStmt:
		for {
			before := px.parks
			if err := px.exec(e, s.Body); err != nil {
				return err
			}
			if px.parks == before {
				return fmt.Errorf("forever loop without timing control")
			}
		}

	case *vlog.DelayStmt:
		dv, err := eval(e, s.Delay, 0)
		if err != nil {
			return err
		}
		d, ok := dv.Uint64()
		if !ok {
			d = 0
		}
		px.delay(d)
		return px.exec(e, s.Stmt)

	case *vlog.EventStmt:
		if err := px.waitEvent(e, s); err != nil {
			return err
		}
		return px.exec(e, s.Stmt)

	case *vlog.WaitStmt:
		for {
			cv, err := eval(e, s.Cond, 0)
			if err != nil {
				return err
			}
			if cv.IsTrue() {
				break
			}
			ws := &vlog.EventStmt{Events: []vlog.EventExpr{{X: s.Cond}}}
			if err := px.waitEvent(e, ws); err != nil {
				return err
			}
		}
		return px.exec(e, s.Stmt)

	case *vlog.SysTaskStmt:
		if e.sim == nil {
			return nil // constant evaluation of a function
		}
		if err := e.sim.sysTask(e, s); err != nil {
			return err
		}
		// $finish and $stop unwind a process; a function keeps running.
		if px.p != nil && (s.Name == "$finish" || s.Name == "$stop") {
			panic(procFinished{})
		}
		return nil

	case *vlog.TaskCallStmt:
		return px.callTask(e, s)

	case *vlog.DisableStmt:
		return errDisabled{name: s.Name}
	}
	return e.errf("unsupported statement %T", st)
}

// assign handles blocking and nonblocking procedural assignments.
func (px *procExec) assign(e env, s *vlog.AssignStmt) error {
	if px.p == nil && (!s.Blocking || s.Delay != nil) {
		return e.errf("nonblocking or delayed assignment inside a function")
	}
	slices, total, err := resolveLV(e, s.LHS)
	if err != nil {
		return err
	}
	val, err := eval(e, s.RHS, total)
	if err != nil {
		return err
	}
	if s.Blocking {
		if s.Delay != nil {
			dv, err := eval(e, s.Delay, 0)
			if err != nil {
				return err
			}
			d, _ := dv.Uint64()
			px.delay(d)
		}
		return storeSlices(e, slices, total, val, nil)
	}
	u := &nbaUpdate{e: e, slices: slices, total: total, val: val}
	if s.Delay != nil {
		dv, err := eval(e, s.Delay, 0)
		if err != nil {
			return err
		}
		d, _ := dv.Uint64()
		if d > 0 {
			e.sim.scheduleAt(e.sim.now+d, &futureEvent{nba: u})
			return nil
		}
	}
	e.sim.nbaQueue = append(e.sim.nbaQueue, u)
	return nil
}

// delay parks the process until now+d.
func (px *procExec) delay(d uint64) {
	px.p.sim.scheduleAt(px.p.sim.now+d, &futureEvent{p: px.p})
	px.parks++
	px.budget = maxFuncSteps
	px.p.park()
}

// waitEvent registers a one-shot watcher group for s and parks.
func (px *procExec) waitEvent(e env, s *vlog.EventStmt) error {
	group := &waitGroup{}
	var events []vlog.EventExpr
	if s.Star {
		reads := map[*Signal]bool{}
		stmtReads(e.scope, s.Stmt, reads)
		// One value-change watcher per read signal, all in one group.
		any := false
		for _, sig := range sortedSignals(reads) {
			w := &watcher{scope: e.scope, proc: px.p, group: group}
			w.expr = nil // any write wakes; the proc re-evaluates anyway
			sig.watchers = append(sig.watchers, w)
			any = true
		}
		if !any {
			// @* with nothing to read never fires; park forever.
			px.parks++
			px.p.park()
			return nil
		}
		px.parks++
		px.budget = maxFuncSteps
		px.p.park()
		return nil
	}
	events = s.Events
	registered := 0
	for _, evx := range events {
		srcs := map[*Signal]bool{}
		exprSignals(e.scope, evx.X, srcs)
		if len(srcs) == 0 {
			continue
		}
		last, err := eval(e, evx.X, 0)
		if err != nil {
			return err
		}
		w := &watcher{edge: evx.Edge, expr: evx.X, scope: e.scope, last: last, proc: px.p, group: group}
		for _, sig := range sortedSignals(srcs) {
			sig.watchers = append(sig.watchers, w)
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("event control references no signals")
	}
	px.parks++
	px.budget = maxFuncSteps
	px.p.park()
	return nil
}

// callTask invokes a user task (timing allowed) or an event trigger.
func (px *procExec) callTask(e env, s *vlog.TaskCallStmt) error {
	if len(s.Name) > 2 && s.Name[0] == '-' && s.Name[1] == '>' {
		// Event trigger: toggle the event signal between defined values so
		// value-change waits always fire (x toggles to 1).
		name := s.Name[2:]
		sig, ok := e.scope.lookupSignal(name)
		if !ok {
			return fmt.Errorf("unknown event %q", name)
		}
		if u, okv := sig.Val.Uint64(); okv && u == 1 {
			sig.Val = FromUint64(0, 1)
		} else {
			sig.Val = FromUint64(1, 1)
		}
		e.sim.signalChanged(sig)
		return nil
	}
	if px.depth > 32 {
		return fmt.Errorf("task call nesting too deep")
	}
	task, tsc, ok := e.scope.lookupTask(s.Name)
	if !ok {
		return fmt.Errorf("unknown task %q", s.Name)
	}
	if len(s.Args) != len(task.Inputs) {
		return fmt.Errorf("task %s expects %d args, got %d", s.Name, len(task.Inputs), len(s.Args))
	}
	fr := &frame{vars: map[string]*Value{}}
	if err := bindFrame(e, tsc, fr, task.Inputs, task.Locals, s.Args); err != nil {
		return err
	}
	te := env{d: e.d, sim: e.sim, scope: tsc, frame: fr}
	px.depth++
	err := px.exec(te, task.Body)
	px.depth--
	if err != nil {
		if dis, ok := err.(errDisabled); ok && dis.name == s.Name {
			err = nil // disable <taskname> returns from the task
		} else {
			return err
		}
	}
	// Copy out output/inout arguments.
	for i, port := range task.Inputs {
		if port.Dir != "output" && port.Dir != "inout" {
			continue
		}
		slices, total, err := resolveLV(e, s.Args[i])
		if err != nil {
			return fmt.Errorf("task %s output arg %d: %w", s.Name, i, err)
		}
		if err := storeSlices(e, slices, total, *fr.vars[port.Name], nil); err != nil {
			return err
		}
	}
	return nil
}

// bindFrame fills fr, the frame of a call to a function or task declared in
// sc: each port and local starts as newVar makes it, and each port that is
// not an output takes its argument, evaluated in the caller's env e.
func bindFrame(e env, sc *Scope, fr *frame, ports, locals []*vlog.Decl, args []vlog.Expr) error {
	for i, port := range ports {
		v, err := e.d.newVar(sc, port)
		if err != nil {
			return err
		}
		if port.Dir != "output" {
			av, err := eval(e, args[i], 0)
			if err != nil {
				return err
			}
			*v = av.Resize(v.Width)
			v.Signed = port.Signed
		}
		fr.vars[port.Name] = v
	}
	for _, lc := range locals {
		v, err := e.d.newVar(sc, lc)
		if err != nil {
			return err
		}
		fr.vars[lc.Name] = v
	}
	return nil
}

// newVar returns a fresh all-x variable for dcl declared in sc: as wide as
// its range, else 32 bits for an integer and one bit for a reg.
func (d *Design) newVar(sc *Scope, dcl *vlog.Decl) (*Value, error) {
	w := 1
	if dcl.Kind == vlog.DeclInteger {
		w = 32
	}
	if dcl.Vec != nil {
		var err error
		if w, _, _, err = d.rangeWidth(sc, dcl.Vec); err != nil {
			return nil, err
		}
	}
	v := NewValue(w)
	v.Signed = dcl.Signed
	return &v, nil
}
