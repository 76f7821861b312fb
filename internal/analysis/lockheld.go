package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHeld enforces the *Locked naming discipline: a function named
// fooLocked asserts "my guarding mutex is held on entry", so every call to
// it must come from a context that holds that mutex — the caller either
// holds it on every control-flow path reaching the call, or is itself a
// *Locked function sharing the same guard.
//
// The guard is resolved, in order: an explicit //freehw:guardedby <field>
// directive in the callee's doc comment; the receiver's mutex field whose
// name shares the longest (>= 2 character) prefix with the method name
// (publishLocked -> pubMu); the receiver's only mutex field. When no guard
// resolves, holding any mutex of the receiver satisfies the check, and the
// diagnostic suggests adding the directive.
//
// The analysis is path-sensitive: a must-held forward dataflow over the
// function's CFG. The guard counts as held at a call only if an
// acquisition dominates it on every path — a branch that unlocks early and
// falls through to the call is caught, and a lock acquired only under a
// condition does not excuse a call after the join. TryLock is modeled on
// branch edges: inside `if mu.TryLock() { ... }` the lock is held; on the
// other edge it is not. Deferred unlocks never clear the held state (they
// run at exit). Function literals are analyzed as their own CFGs, entered
// with the locks held at the point the literal appears.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "*Locked functions may only be called with their guarding mutex held",
	Run:  runLockHeld,
}

var acquireNames = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var releaseNames = map[string]bool{"Unlock": true, "RUnlock": true}

func runLockHeld(pass *Pass) {
	forEachFunc(pass.Pkg, func(fn *ast.FuncDecl) {
		checkLockHeldUnit(pass, fn, fn.Body, nil)
	})
}

// lockOpKind classifies a mutex-shaped call.
type lockOpKind int

const (
	lockAcq    lockOpKind = iota // Lock, RLock: acquires unconditionally
	lockTryAcq                   // TryLock, TryRLock: acquires only on true
	lockRel                      // Unlock, RUnlock
)

// lockOpOf matches a call like x.mu.Lock() and returns the lock cell (the
// printed receiver, "x.mu") and the kind of operation.
func lockOpOf(pkg *Package, call *ast.CallExpr) (cell string, kind lockOpKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	name := sel.Sel.Name
	if !acquireNames[name] && !releaseNames[name] {
		return "", 0, false
	}
	if !isMutexType(pkg.Info.TypeOf(sel.X)) {
		return "", 0, false
	}
	switch {
	case releaseNames[name]:
		kind = lockRel
	case strings.HasPrefix(name, "Try"):
		kind = lockTryAcq
	default:
		kind = lockAcq
	}
	return types.ExprString(sel.X), kind, true
}

// lockCells assigns a bit index to every lock cell touched in body (not
// descending into nested function literals), plus any cells held at entry
// (a closure inherits its parent's held set even when it has no lock
// operations of its own).
func lockCells(pkg *Package, body *ast.BlockStmt, entryHeld map[string]bool) map[string]int {
	cells := map[string]int{}
	add := func(cell string) {
		if _, dup := cells[cell]; !dup {
			cells[cell] = len(cells)
		}
	}
	for cell := range entryHeld {
		add(cell)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, isCall := n.(*ast.CallExpr); isCall {
			if cell, _, ok := lockOpOf(pkg, call); ok {
				add(cell)
			}
		}
		return true
	})
	return cells
}

// checkLockHeldUnit analyzes one function body (a declaration's or a
// nested literal's). caller is the enclosing declaration, used for the
// *Locked-caller inheritance rule; entryHeld names the lock cells held
// when the body starts executing.
func checkLockHeldUnit(pass *Pass, caller *ast.FuncDecl, body *ast.BlockStmt, entryHeld map[string]bool) {
	pkg := pass.Pkg
	cells := lockCells(pkg, body, entryHeld)
	nbits := len(cells)
	if nbits == 0 {
		nbits = 1
	}
	cfg := BuildCFG(pkg, body)

	boundary := newBitset(nbits)
	for cell := range entryHeld {
		boundary.set(cells[cell])
	}

	d := &dataflow{
		cfg:      cfg,
		nbits:    nbits,
		boundary: boundary,
		transfer: func(n ast.Node, fact bitset) {
			// Deferred lock operations run at function exit, not here: a
			// `defer mu.Unlock()` must not drain the held state for the
			// statements after it.
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				return
			}
			shallowInspect(n, func(m ast.Node) bool {
				call, isCall := m.(*ast.CallExpr)
				if !isCall {
					return true
				}
				cell, kind, ok := lockOpOf(pkg, call)
				if !ok {
					return true
				}
				bit, known := cells[cell]
				if !known {
					return true
				}
				switch kind {
				case lockAcq:
					fact.set(bit)
				case lockRel:
					fact.clear(bit)
					// lockTryAcq: handled on branch edges below; the call
					// itself proves nothing.
				}
				return true
			})
		},
		edgeTransfer: func(e CFGEdge, fact bitset) {
			cond, neg := e.Cond, e.Negate
			if u, isNot := cond.(*ast.UnaryExpr); isNot && u.Op == token.NOT {
				cond, neg = u.X, !neg
			}
			call, isCall := cond.(*ast.CallExpr)
			if !isCall {
				return
			}
			cell, kind, ok := lockOpOf(pkg, call)
			if !ok || kind != lockTryAcq {
				return
			}
			if bit, known := cells[cell]; known {
				if neg {
					fact.clear(bit)
				} else {
					fact.set(bit)
				}
			}
		},
	}
	res := d.solve()

	for i := range cfg.Blocks {
		res.visit(i, func(n ast.Node, fact bitset) {
			shallowInspect(n, func(m ast.Node) bool {
				if call, isCall := m.(*ast.CallExpr); isCall {
					checkLockedCall(pass, caller, cells, fact, call)
				}
				return true
			})
			// Closures inherit the held set at their point of appearance
			// and are analyzed as independent CFGs.
			for _, lit := range funcLits(n) {
				inherited := map[string]bool{}
				for cell, bit := range cells {
					if fact.has(bit) {
						inherited[cell] = true
					}
				}
				checkLockHeldUnit(pass, caller, lit.Body, inherited)
			}
		})
	}
}

// checkLockedCall reports a call to a *Locked function whose guard is not
// held in fact.
func checkLockedCall(pass *Pass, caller *ast.FuncDecl, cells map[string]int, fact bitset, call *ast.CallExpr) {
	pkg := pass.Pkg
	callee := calledFunc(pkg, call)
	if callee == nil || !isLockedName(callee.Name()) {
		return
	}
	guard, guardKnown := lockedGuard(pkg, callee)
	// A *Locked caller inherits the lock when it shares the callee's
	// guard (or when either guard is unresolvable — the benefit of the
	// doubt goes to the convention, the directive removes the doubt).
	if isLockedName(caller.Name.Name) {
		callerGuard, callerKnown := lockedGuardOfDecl(pkg, caller)
		if !guardKnown || !callerKnown || callerGuard == guard {
			return
		}
	}
	base := receiverBase(call)
	want := guard
	if base != "" && guard != "" {
		want = base + "." + guard
	}
	held := false
	switch {
	case guardKnown:
		if bit, ok := cells[want]; ok {
			held = fact.has(bit)
		}
	case base == "":
		// Unresolved guard on a plain function: any held mutex counts.
		held = fact.any()
	default:
		// Unresolved guard on a method: any held mutex rooted at the
		// callee's receiver counts.
		for cell, bit := range cells {
			if (cell == base || strings.HasPrefix(cell, base+".")) && fact.has(bit) {
				held = true
				break
			}
		}
	}
	if held {
		return
	}
	if guardKnown {
		pass.Reportf(call.Pos(), "%s called without holding %s (its guard); lock it on every path to this call or make the caller *Locked",
			callee.Name(), want)
	} else {
		pass.Reportf(call.Pos(), "%s called without any mutex held; no guard could be resolved — add //freehw:guardedby <field> to its doc",
			callee.Name())
	}
}

// calledFunc resolves the function or method a call expression invokes.
func calledFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// receiverBase returns the printed base of a method call's receiver
// ("s" for s.publishLocked(...)), or "" for plain function calls.
func receiverBase(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

func isLockedName(name string) bool {
	return strings.HasSuffix(name, "Locked") && name != "Locked"
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// lockedGuard resolves the guarding mutex of a *Locked function: the
// //freehw:guardedby directive when present, otherwise name-prefix
// inference over the receiver's mutex fields.
func lockedGuard(pkg *Package, fn *types.Func) (guard string, known bool) {
	if decl := pkg.FuncDeclOf(fn); decl != nil {
		if g, ok := pkg.directives.guardedBy[decl]; ok {
			return g, true
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	return inferGuard(fn.Name(), mutexFields(sig.Recv().Type()))
}

// lockedGuardOfDecl resolves the guard of a declaration in the package
// under analysis (the caller side of the inheritance rule).
func lockedGuardOfDecl(pkg *Package, decl *ast.FuncDecl) (string, bool) {
	if g, ok := pkg.directives.guardedBy[decl]; ok {
		return g, true
	}
	fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "", false
	}
	return inferGuard(fn.Name(), mutexFields(sig.Recv().Type()))
}

// mutexFields lists the sync.Mutex/RWMutex fields of a (possibly pointer)
// struct type, in declaration order.
func mutexFields(t types.Type) []string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}

// inferGuard picks the mutex field whose name shares the longest prefix
// (>= 2 characters, case-insensitive) with the method's base name; with no
// such match, a sole mutex field wins by default.
func inferGuard(method string, fields []string) (string, bool) {
	base := strings.ToLower(strings.TrimSuffix(method, "Locked"))
	best, bestLen, ties := "", 1, 0
	for _, f := range fields {
		n := commonPrefixLen(base, strings.ToLower(f))
		if n > bestLen {
			best, bestLen, ties = f, n, 1
		} else if n == bestLen && n > 1 {
			ties++
		}
	}
	if best != "" && ties == 1 {
		return best, true
	}
	if len(fields) == 1 {
		return fields[0], true
	}
	return "", false
}

func commonPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
