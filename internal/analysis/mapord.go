package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrd flags range statements over maps whose iteration order can leak
// into output: the body appends to a slice with no dominating sort (or
// other canonicalization) between the loop and the slice's use, writes to
// an io.Writer, or accumulates a floating-point sum (float addition is not
// associative, so a different visit order yields different bits). Map
// iteration order is deliberately randomized by the runtime, so any of
// these turns a byte-identical contract into a coin flip.
//
// Order-insensitive bodies — writes into another map, set membership
// tests, max/min folds over integers — are not flagged, and neither is an
// append or float update whose destination is rooted in a variable
// declared inside the loop body: it starts afresh every iteration, so it
// carries nothing from one key to the next. An append is excused when the
// same function later sorts the destination slice (sort.* or slices.Sort*
// mentioning the slice after the loop), the keys-then-sort idiom.
var MapOrd = &Analyzer{
	Name: "mapord",
	Doc:  "flags nondeterministic map iteration feeding slices, writers, or float sums",
	Run:  runMapOrd,
}

func runMapOrd(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapOrdFunc(pass, fn)
		}
	}
}

func checkMapOrdFunc(pass *Pass, fn *ast.FuncDecl) {
	pkg := pass.Pkg
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := pkg.Info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
			return true
		}
		mapName := types.ExprString(rng.X)
		// Scan the loop body for order-sensitive sinks. Nested range
		// statements are visited by the outer Inspect on their own, so the
		// sink scan here attributes each finding to the innermost map loop.
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch stmt := m.(type) {
			case *ast.AssignStmt:
				checkMapOrdAssign(pass, fn, rng, mapName, stmt)
			case *ast.CallExpr:
				if writerCallName(pkg, stmt) != "" {
					pass.Reportf(stmt.Pos(),
						"range over map %s writes to an io.Writer (%s); map iteration order is not deterministic",
						mapName, writerCallName(pkg, stmt))
				}
			}
			return true
		})
		return true
	})
}

// checkMapOrdAssign flags order-sensitive assignments inside a map-range
// body: slice appends without a later sort, and float accumulations.
func checkMapOrdAssign(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, mapName string, stmt *ast.AssignStmt) {
	pkg := pass.Pkg
	// x op= y accumulation.
	if len(stmt.Lhs) == 1 && isFloat(pkg.Info.TypeOf(stmt.Lhs[0])) && !bodyLocal(pkg, rng, stmt.Lhs[0]) {
		switch stmt.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			pass.Reportf(stmt.Pos(),
				"range over map %s accumulates float %s; iteration order changes rounding",
				mapName, types.ExprString(stmt.Lhs[0]))
			return
		case token.ASSIGN:
			// x = x + y (and friends) spelled out.
			if bin, ok := stmt.Rhs[0].(*ast.BinaryExpr); ok {
				lhs := types.ExprString(stmt.Lhs[0])
				if types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs {
					pass.Reportf(stmt.Pos(),
						"range over map %s accumulates float %s; iteration order changes rounding",
						mapName, lhs)
					return
				}
			}
		}
	}
	// dst = append(dst, ...) — flagged unless dst is sorted after the loop.
	for i, rhs := range stmt.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pkg, call) || i >= len(stmt.Lhs) {
			continue
		}
		dst := types.ExprString(stmt.Lhs[i])
		if dst == "_" || bodyLocal(pkg, rng, stmt.Lhs[i]) {
			continue
		}
		if sortedAfter(pkg, fn, rng.End(), dst) {
			continue
		}
		pass.Reportf(stmt.Pos(),
			"range over map %s appends to %s with no sort/canonicalization before it escapes",
			mapName, dst)
	}
}

// bodyLocal reports whether e — an identifier, possibly under field
// selectors, indexing or parentheses — is rooted in a variable declared
// inside rng's body. A pointer dereference, explicit or through a selector,
// ends the search: what a body-local pointer points at need not be local.
func bodyLocal(pkg *Package, rng *ast.RangeStmt, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			t := pkg.Info.TypeOf(x.X)
			if t == nil {
				return false
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return false
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			obj := pkg.Info.ObjectOf(x)
			return obj != nil && rng.Body.Pos() <= obj.Pos() && obj.Pos() < rng.Body.End()
		default:
			return false
		}
	}
}

func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// ioWriterIface is a structural io.Writer built from scratch so the check
// does not depend on the analyzed package importing io.
var ioWriterIface = func() *types.Interface {
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", byteSlice)),
		types.NewTuple(
			types.NewVar(0, nil, "n", types.Typ[types.Int]),
			types.NewVar(0, nil, "err", types.Universe.Lookup("error").Type()),
		), false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

var writerMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// writerCallName reports the printable name of a call that emits bytes to
// an io.Writer-shaped destination ("" when the call is not one): a method
// Write/WriteString/... on a type implementing io.Writer, or an
// fmt.Fprint*/fmt.Print* call.
func writerCallName(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if p := pkg.pkgNameOf(id); p != nil && p.Path() == "fmt" &&
			(strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print")) {
			return "fmt." + name
		}
	}
	if !writerMethodNames[name] {
		return ""
	}
	recv := pkg.Info.TypeOf(sel.X)
	if recv == nil {
		return ""
	}
	if types.Implements(recv, ioWriterIface) ||
		types.Implements(types.NewPointer(recv), ioWriterIface) {
		return types.ExprString(sel.X) + "." + name
	}
	return ""
}

// sortedAfter reports whether fn contains, lexically after pos, a sorting
// call (sort.* or slices.Sort*) whose arguments mention dst — the
// canonicalization that makes a map-order append deterministic again.
func sortedAfter(pkg *Package, fn *ast.FuncDecl, pos token.Pos, dst string) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		p := pkg.pkgNameOf(id)
		if p == nil {
			return true
		}
		isSort := p.Path() == "sort" ||
			(p.Path() == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort"))
		if !isSort {
			return true
		}
		// The slice may be wrapped (sort.Sort(sort.Reverse(sort.IntSlice(s)))),
		// so search the whole argument subtree for a mention.
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if expr, ok := a.(ast.Expr); ok && types.ExprString(expr) == dst {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
