package vsim

import (
	"container/heap"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"sort"
	"strings"

	"freehw/internal/vlog"
)

// proc is one behavioral process (always/initial), run as an iter.Pull
// coroutine: the scheduler resumes it with next, it suspends in yield, and
// Close ends it with stop.
type proc struct {
	name  string
	scope *Scope
	body  vlog.Stmt
	kind  vlog.ProcKind

	sim    *Simulator
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	queued bool
	done   bool
	frame  *frame // block-local static variables
}

// sentinel panics used to unwind a process.
type procKilled struct{}
type procFinished struct{}
type procFailed struct{ err error }

// errDisabled unwinds to the named block.
type errDisabled struct{ name string }

func (e errDisabled) Error() string { return "disable " + e.name }

// futureEvent is a scheduled wakeup or NBA application.
type futureEvent struct {
	time uint64
	seq  int
	p    *proc
	nba  *nbaUpdate
	cont *contAssign
}

type nbaUpdate struct {
	e      env
	slices []lvSlice
	total  int
	val    Value
}

type eventHeap []*futureEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*futureEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Options configures a Simulator.
type Options struct {
	Seed      int64
	Output    io.Writer
	MaxDeltas int    // zero-delay iterations allowed per time step
	MaxSteps  uint64 // total runnable executions allowed (0 = default)
}

// Simulator executes an elaborated Design.
type Simulator struct {
	d   *Design
	now uint64
	rng *rand.Rand
	out io.Writer

	active    []runnable
	nbaQueue  []*nbaUpdate
	strobes   []func()
	future    eventHeap
	seq       int
	started   bool
	finished  bool
	closed    bool
	runErr    error
	maxDeltas int
	maxSteps  uint64
	steps     uint64

	monitors []*monitorEntry

	ext map[*Signal]*driver
}

type runnable struct {
	p    *proc
	cont *contAssign
	fn   func()
}

type monitorEntry struct {
	e    env
	args []vlog.Expr
	last string
}

// New creates a simulator over d.
func New(d *Design, opts Options) *Simulator {
	if opts.Output == nil {
		opts.Output = io.Discard
	}
	if opts.MaxDeltas == 0 {
		opts.MaxDeltas = 1 << 16
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1 << 24
	}
	s := &Simulator{
		d:         d,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		out:       opts.Output,
		maxDeltas: opts.MaxDeltas,
		maxSteps:  opts.MaxSteps,
		ext:       map[*Signal]*driver{},
	}
	return s
}

// Time returns current simulation time.
func (s *Simulator) Time() uint64 { return s.now }

// Err returns the first runtime error, if any.
func (s *Simulator) Err() error { return s.runErr }

// Finished reports whether $finish was executed.
func (s *Simulator) Finished() bool { return s.finished }

// start schedules every process and continuous assignment once.
func (s *Simulator) start() {
	if s.started {
		return
	}
	s.started = true
	for _, c := range s.d.conts {
		s.registerContWatchers(c)
		s.active = append(s.active, runnable{cont: c})
	}
	for _, p := range s.d.procs {
		p.sim = s
		p.next, p.stop = iter.Pull(p.run)
		s.active = append(s.active, runnable{p: p})
		p.queued = true
	}
}

// Close stops every process coroutine; one suspended in yield unwinds.
// The design state remains readable. The simulator cannot run again after
// Close, and a second Close does nothing.
func (s *Simulator) Close() {
	if s.started && !s.closed {
		for _, p := range s.d.procs {
			p.stop()
		}
	}
	s.closed = true
}

// Run processes events until $finish, error, event starvation, or the time
// limit is exceeded (events beyond the limit remain queued).
func (s *Simulator) Run(limit uint64) error {
	s.run(limit)
	return s.runErr
}

// StepTo advances simulation to exactly time t, executing all events with
// time <= t. Use with SetInput to drive a testbench from Go.
func (s *Simulator) StepTo(t uint64) error {
	s.run(t)
	if s.runErr == nil && s.now < t {
		s.now = t
	}
	return s.runErr
}

// run is the scheduler. It takes runnables off the active queue one at a
// time (a process runs by a call to its next, until it parks again), then
// applies nonblocking updates, strobes and monitors, and advances time.
func (s *Simulator) run(limit uint64) {
	if s.closed {
		if s.runErr == nil {
			s.runErr = fmt.Errorf("vsim: simulator is closed")
		}
		return
	}
	s.start()
	deltas := 0
	for s.runErr == nil && !s.finished {
		if len(s.active) > 0 {
			r := s.active[0]
			s.active = s.active[1:]
			s.steps++
			if s.steps > s.maxSteps {
				s.fail(fmt.Errorf("vsim: step budget exceeded at t=%d (runaway simulation?)", s.now))
				return
			}
			deltas++
			if deltas > s.maxDeltas {
				s.fail(fmt.Errorf("vsim: zero-delay oscillation at t=%d", s.now))
				return
			}
			switch {
			case r.p != nil:
				r.p.queued = false
				if r.p.done {
					continue
				}
				r.p.next()
			case r.cont != nil:
				r.cont.inEval = false
				s.runCont(r.cont)
			case r.fn != nil:
				r.fn()
			}
			continue
		}
		if len(s.nbaQueue) > 0 {
			batch := s.nbaQueue
			s.nbaQueue = nil
			for _, u := range batch {
				if err := storeSlices(u.e, u.slices, u.total, u.val, nil); err != nil {
					s.fail(err)
					return
				}
			}
			continue
		}
		// Postponed region.
		if len(s.strobes) > 0 {
			batch := s.strobes
			s.strobes = nil
			for _, fn := range batch {
				fn()
			}
			if len(s.active) > 0 || len(s.nbaQueue) > 0 {
				continue
			}
		}
		s.runMonitors()
		// Advance time.
		if len(s.future) == 0 {
			return // event starvation
		}
		next := s.future[0].time
		if next > limit {
			return
		}
		s.now = next
		deltas = 0
		for len(s.future) > 0 && s.future[0].time == s.now {
			ev := heap.Pop(&s.future).(*futureEvent)
			switch {
			case ev.p != nil:
				if !ev.p.queued && !ev.p.done {
					ev.p.queued = true
					s.active = append(s.active, runnable{p: ev.p})
				}
			case ev.nba != nil:
				s.nbaQueue = append(s.nbaQueue, ev.nba)
			case ev.cont != nil:
				if !ev.cont.inEval {
					ev.cont.inEval = true
					s.active = append(s.active, runnable{cont: ev.cont})
				}
			}
		}
	}
}

func (s *Simulator) fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

func (s *Simulator) scheduleAt(t uint64, ev *futureEvent) {
	ev.time = t
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.future, ev)
}

// ---- Signals, watchers, nets ----

func (s *Simulator) signalChanged(sig *Signal) {
	if len(sig.watchers) == 0 {
		return
	}
	dead := 0
	for _, w := range sig.watchers {
		if w.dead {
			dead++
			continue
		}
		s.checkWatcher(w)
	}
	if dead > len(sig.watchers)/2 && dead > 8 {
		live := sig.watchers[:0]
		for _, w := range sig.watchers {
			if !w.dead {
				live = append(live, w)
			}
		}
		sig.watchers = live
	}
}

func (s *Simulator) checkWatcher(w *watcher) {
	if w.group != nil && w.group.done {
		w.dead = true
		return
	}
	trig := false
	if w.expr == nil {
		trig = true
	} else {
		e := env{d: s.d, sim: s, scope: w.scope}
		v, err := eval(e, w.expr, 0)
		if err != nil {
			s.fail(err)
			return
		}
		switch w.edge {
		case "posedge":
			trig = isPosedge(w.last, v)
		case "negedge":
			trig = isNegedge(w.last, v)
		default:
			trig = !v.Equal4(w.last)
		}
		w.last = v
	}
	if !trig {
		return
	}
	switch {
	case w.cont != nil:
		if !w.cont.inEval {
			w.cont.inEval = true
			s.active = append(s.active, runnable{cont: w.cont})
		}
	case w.proc != nil:
		// One-shot: retire the entire wait group so sibling watchers (and
		// this process's own writes while it runs) cannot wake it again.
		w.dead = true
		if w.group != nil {
			if w.group.done {
				return
			}
			w.group.done = true
		}
		if !w.proc.queued && !w.proc.done {
			w.proc.queued = true
			s.active = append(s.active, runnable{p: w.proc})
		}
	case w.wake != nil:
		if w.oneShot {
			w.dead = true
		}
		s.active = append(s.active, runnable{fn: w.wake})
	}
}

// isPosedge implements the IEEE 1364 edge table on the LSB.
func isPosedge(old, new Value) bool {
	oa, ob := old.Bit(0)
	na, nb := new.Bit(0)
	oldV := bitClass(oa, ob)
	newV := bitClass(na, nb)
	// 0->1, 0->x, x->1 are posedges.
	return (oldV == 0 && newV != 0) || (oldV == 2 && newV == 1)
}

func isNegedge(old, new Value) bool {
	oa, ob := old.Bit(0)
	na, nb := new.Bit(0)
	oldV := bitClass(oa, ob)
	newV := bitClass(na, nb)
	return (oldV == 1 && newV != 1) || (oldV == 2 && newV == 0)
}

// bitClass: 0, 1, or 2 (x/z).
func bitClass(a, b uint64) int {
	if b != 0 {
		return 2
	}
	return int(a)
}

func (s *Simulator) resolveNet(sig *Signal) {
	vals := make([]Value, 0, len(sig.drivers))
	for _, dr := range sig.drivers {
		vals = append(vals, dr.val)
	}
	newVal := Resolve(vals, sig.Width)
	newVal.Signed = sig.Signed
	if !newVal.Equal4(sig.Val) {
		sig.Val = newVal
		s.signalChanged(sig)
	}
}

// sigCollector gathers the signals an expression or statement reads; the
// visited set prevents infinite recursion through recursive functions.
type sigCollector struct {
	out     map[*Signal]bool
	visited map[*vlog.Func]bool
}

// exprSignals collects the signals an expression reads (approximation used
// for sensitivity lists).
func exprSignals(sc *Scope, x vlog.Expr, out map[*Signal]bool) {
	c := &sigCollector{out: out, visited: map[*vlog.Func]bool{}}
	c.expr(sc, x)
}

// stmtReads collects signals read anywhere in a statement (for @*).
func stmtReads(sc *Scope, s vlog.Stmt, out map[*Signal]bool) {
	c := &sigCollector{out: out, visited: map[*vlog.Func]bool{}}
	c.stmt(sc, s)
}

func (c *sigCollector) expr(sc *Scope, x vlog.Expr) {
	switch v := x.(type) {
	case *vlog.Ident:
		if sig, ok := sc.lookupSignal(v.Name); ok {
			c.out[sig] = true
		}
	case *vlog.HierIdent:
		e := env{scope: sc}
		if sig, err := resolveHier(e, v); err == nil {
			c.out[sig] = true
		}
	case *vlog.Unary:
		c.expr(sc, v.X)
	case *vlog.Binary:
		c.expr(sc, v.X)
		c.expr(sc, v.Y)
	case *vlog.Ternary:
		c.expr(sc, v.Cond)
		c.expr(sc, v.Then)
		c.expr(sc, v.Else)
	case *vlog.Concat:
		for _, p := range v.Parts {
			c.expr(sc, p)
		}
	case *vlog.Repl:
		c.expr(sc, v.Count)
		for _, p := range v.Parts {
			c.expr(sc, p)
		}
	case *vlog.Index:
		c.expr(sc, v.X)
		c.expr(sc, v.Idx)
	case *vlog.PartSelect:
		c.expr(sc, v.X)
		c.expr(sc, v.Left)
		c.expr(sc, v.Right)
	case *vlog.Call:
		for _, a := range v.Args {
			c.expr(sc, a)
		}
		// Conservative: also include signals read inside the function body.
		if len(v.Name) > 0 && v.Name[0] != '$' {
			if f, fsc, ok := sc.lookupFunc(v.Name); ok && !c.visited[f] {
				c.visited[f] = true
				c.stmt(fsc, f.Body)
			}
		}
	}
}

func (c *sigCollector) stmt(sc *Scope, s vlog.Stmt) {
	switch st := s.(type) {
	case nil:
		return
	case *vlog.Block:
		for _, sub := range st.Stmts {
			c.stmt(sc, sub)
		}
	case *vlog.AssignStmt:
		c.expr(sc, st.RHS)
		// Index expressions on the LHS are also reads.
		c.lhsIndexReads(sc, st.LHS)
	case *vlog.IfStmt:
		c.expr(sc, st.Cond)
		c.stmt(sc, st.Then)
		c.stmt(sc, st.Else)
	case *vlog.CaseStmt:
		c.expr(sc, st.Expr)
		for _, it := range st.Items {
			for _, x := range it.Exprs {
				c.expr(sc, x)
			}
			c.stmt(sc, it.Body)
		}
	case *vlog.ForStmt:
		c.stmt(sc, st.Init)
		c.expr(sc, st.Cond)
		c.stmt(sc, st.Post)
		c.stmt(sc, st.Body)
	case *vlog.WhileStmt:
		c.expr(sc, st.Cond)
		c.stmt(sc, st.Body)
	case *vlog.RepeatStmt:
		c.expr(sc, st.Count)
		c.stmt(sc, st.Body)
	case *vlog.ForeverStmt:
		c.stmt(sc, st.Body)
	case *vlog.DelayStmt:
		c.stmt(sc, st.Stmt)
	case *vlog.EventStmt:
		c.stmt(sc, st.Stmt)
	case *vlog.WaitStmt:
		c.expr(sc, st.Cond)
		c.stmt(sc, st.Stmt)
	case *vlog.SysTaskStmt:
		for _, a := range st.Args {
			c.expr(sc, a)
		}
	case *vlog.TaskCallStmt:
		for _, a := range st.Args {
			c.expr(sc, a)
		}
		if tk, tsc, ok := sc.lookupTask(st.Name); ok {
			c.stmt(tsc, tk.Body)
		}
	}
}

func (c *sigCollector) lhsIndexReads(sc *Scope, x vlog.Expr) {
	switch v := x.(type) {
	case *vlog.Index:
		c.expr(sc, v.Idx)
		c.lhsIndexReads(sc, v.X)
	case *vlog.PartSelect:
		c.expr(sc, v.Left)
		c.expr(sc, v.Right)
		c.lhsIndexReads(sc, v.X)
	case *vlog.Concat:
		for _, p := range v.Parts {
			c.lhsIndexReads(sc, p)
		}
	}
}

func lhsIndexReads(sc *Scope, x vlog.Expr, out map[*Signal]bool) {
	c := &sigCollector{out: out, visited: map[*vlog.Func]bool{}}
	c.lhsIndexReads(sc, x)
}

// sortedSignals returns map keys in deterministic order.
func sortedSignals(m map[*Signal]bool) []*Signal {
	out := make([]*Signal, 0, len(m))
	for sig := range m {
		out = append(out, sig)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName < out[j].FullName })
	return out
}

func (s *Simulator) registerContWatchers(c *contAssign) {
	reads := map[*Signal]bool{}
	exprSignals(c.rhsScopeOr(), c.rhs, reads)
	lhsIndexReads(c.scope, c.lhs, reads)
	for _, sig := range sortedSignals(reads) {
		w := &watcher{cont: c, scope: c.scope}
		sig.watchers = append(sig.watchers, w)
	}
}

func (s *Simulator) runCont(c *contAssign) {
	e := env{d: s.d, sim: s, scope: c.scope}
	slices, total, err := resolveLV(e, c.lhs)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", c.name, err))
		return
	}
	eRHS := env{d: s.d, sim: s, scope: c.rhsScopeOr()}
	val, err := eval(eRHS, c.rhs, total)
	if err != nil {
		s.fail(fmt.Errorf("%s: %w", c.name, err))
		return
	}
	if err := storeSlices(e, slices, total, val, c.drv); err != nil {
		s.fail(fmt.Errorf("%s: %w", c.name, err))
	}
}

// ---- External I/O (testbench-from-Go API) ----

// findSignal resolves "sig" or "inst.sub.sig" relative to the top scope.
func (s *Simulator) findSignal(path string) (*Signal, error) {
	parts := strings.Split(path, ".")
	sc := s.d.Top
	for i := 0; i < len(parts)-1; i++ {
		child, ok := sc.Childs[parts[i]]
		if !ok {
			return nil, fmt.Errorf("vsim: no instance %q under %s", parts[i], sc.Name)
		}
		sc = child
	}
	sig, ok := sc.Signals[parts[len(parts)-1]]
	if !ok {
		return nil, fmt.Errorf("vsim: no signal %q in %s", parts[len(parts)-1], sc.Name)
	}
	return sig, nil
}

// SetInput drives a top-level signal from outside the design. Nets get a
// dedicated external driver; variables are written directly.
func (s *Simulator) SetInput(name string, v Value) error {
	sig, err := s.findSignal(name)
	if err != nil {
		return err
	}
	s.start()
	if sig.IsNet {
		dr, ok := s.ext[sig]
		if !ok {
			dr = &driver{val: NewZ(sig.Width)}
			s.ext[sig] = dr
			sig.drivers = append(sig.drivers, dr)
		}
		dr.val = v.Resize(sig.Width)
		s.resolveNet(sig)
		return nil
	}
	old := sig.Val
	sig.Val = v.Resize(sig.Width)
	sig.Val.Signed = sig.Signed
	if !old.Equal4(sig.Val) {
		s.signalChanged(sig)
	}
	return nil
}

// Peek reads a signal's current value by hierarchical path.
func (s *Simulator) Peek(name string) (Value, error) {
	sig, err := s.findSignal(name)
	if err != nil {
		return Value{}, err
	}
	return sig.Val.Clone(), nil
}
