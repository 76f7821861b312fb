package vsim

import (
	"fmt"

	"freehw/internal/vlog"
)

// EvalError reports a runtime evaluation problem.
type EvalError struct {
	Where string
	Msg   string
}

func (e *EvalError) Error() string { return fmt.Sprintf("eval %s: %s", e.Where, e.Msg) }

// frame holds function/task-local variables; lookups shadow the scope chain.
type frame struct {
	vars map[string]*Value
}

// env is the evaluation context.
type env struct {
	d     *Design
	sim   *Simulator // nil during constant evaluation
	scope *Scope
	frame *frame
	depth int
}

const maxCallDepth = 128

func (e env) errf(format string, args ...any) error {
	where := "?"
	if e.scope != nil {
		where = e.scope.Name
	}
	return &EvalError{Where: where, Msg: fmt.Sprintf(format, args...)}
}

// constExpr evaluates an elaboration-time constant.
func (d *Design) constExpr(sc *Scope, x vlog.Expr) (Value, error) {
	return eval(env{d: d, scope: sc}, x, 0)
}

// ---- Static width and sign analysis ----

// exprWidth computes the self-determined width of x (IEEE 1364 Table 5-22).
func exprWidth(e env, x vlog.Expr) (int, error) {
	switch v := x.(type) {
	case *vlog.Number:
		return v.Width, nil
	case *vlog.RealLit:
		return 64, nil
	case *vlog.StringLit:
		if len(v.Value) == 0 {
			return 8, nil
		}
		return 8 * len(v.Value), nil
	case *vlog.Ident:
		if e.frame != nil {
			if fv, ok := e.frame.vars[v.Name]; ok {
				return fv.Width, nil
			}
		}
		if pv, ok := e.scope.lookupParam(v.Name); ok {
			return pv.Width, nil
		}
		if sig, ok := e.scope.lookupSignal(v.Name); ok {
			return sig.Width, nil
		}
		return 0, e.errf("unknown identifier %q", v.Name)
	case *vlog.HierIdent:
		sig, err := resolveHier(e, v)
		if err != nil {
			return 0, err
		}
		return sig.Width, nil
	case *vlog.Unary:
		switch v.Op {
		case vlog.NOT, vlog.AND, vlog.NAND, vlog.OR, vlog.NOR, vlog.XOR, vlog.XNOR:
			return 1, nil
		}
		return exprWidth(e, v.X)
	case *vlog.Binary:
		switch v.Op {
		case vlog.LAND, vlog.LOR, vlog.EQEQ, vlog.NEQ, vlog.CASEEQ, vlog.CASENE,
			vlog.LT, vlog.LE, vlog.GT, vlog.GE:
			return 1, nil
		case vlog.SHL, vlog.SHR, vlog.ASHL, vlog.ASHR, vlog.POW:
			return exprWidth(e, v.X)
		}
		wx, err := exprWidth(e, v.X)
		if err != nil {
			return 0, err
		}
		wy, err := exprWidth(e, v.Y)
		if err != nil {
			return 0, err
		}
		if wy > wx {
			wx = wy
		}
		return wx, nil
	case *vlog.Ternary:
		wt, err := exprWidth(e, v.Then)
		if err != nil {
			return 0, err
		}
		we, err := exprWidth(e, v.Else)
		if err != nil {
			return 0, err
		}
		if we > wt {
			wt = we
		}
		return wt, nil
	case *vlog.Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := exprWidth(e, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *vlog.Repl:
		cnt, err := eval(e, v.Count, 0)
		if err != nil {
			return 0, err
		}
		n, ok := cnt.Int64()
		if !ok || n < 0 || n > 1<<16 {
			return 0, e.errf("bad replication count")
		}
		total := 0
		for _, p := range v.Parts {
			w, err := exprWidth(e, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return int(n) * total, nil
	case *vlog.Index:
		// Indexing a memory yields its element width; a vector bit is 1.
		if id, ok := v.X.(*vlog.Ident); ok {
			if sig, ok := lookupSig(e, id.Name); ok && sig.Array != nil {
				return sig.Width, nil
			}
		}
		return 1, nil
	case *vlog.PartSelect:
		switch v.Mode {
		case vlog.PartConst:
			mv, err := eval(e, v.Left, 0)
			if err != nil {
				return 0, err
			}
			lv, err := eval(e, v.Right, 0)
			if err != nil {
				return 0, err
			}
			m, ok1 := mv.Int64()
			l, ok2 := lv.Int64()
			if !ok1 || !ok2 {
				return 0, e.errf("part select bounds are x/z")
			}
			w := absInt(int(m)-int(l)) + 1
			return w, nil
		default:
			wv, err := eval(e, v.Right, 0)
			if err != nil {
				return 0, err
			}
			w, ok := wv.Int64()
			if !ok || w <= 0 || w > 1<<20 {
				return 0, e.errf("bad indexed part-select width")
			}
			return int(w), nil
		}
	case *vlog.Call:
		switch v.Name {
		case "$time", "$realtime":
			return 64, nil
		case "$random", "$urandom", "$clog2", "$stime":
			return 32, nil
		case "$signed", "$unsigned":
			if len(v.Args) != 1 {
				return 0, e.errf("%s takes one argument", v.Name)
			}
			return exprWidth(e, v.Args[0])
		}
		f, _, ok := e.scope.lookupFunc(v.Name)
		if !ok {
			return 0, e.errf("unknown function %q", v.Name)
		}
		if f.Integer || f.Ret == nil {
			if f.Integer {
				return 32, nil
			}
			return 1, nil
		}
		w, _, _, err := e.d.rangeWidth(e.scope.moduleScope(), f.Ret)
		return w, err
	}
	return 0, e.errf("cannot size expression %T", x)
}

// exprSigned reports the signedness of x under IEEE 1364 §5.5.1.
func exprSigned(e env, x vlog.Expr) bool {
	switch v := x.(type) {
	case *vlog.Number:
		return v.Signed
	case *vlog.Ident:
		if e.frame != nil {
			if fv, ok := e.frame.vars[v.Name]; ok {
				return fv.Signed
			}
		}
		if pv, ok := e.scope.lookupParam(v.Name); ok {
			return pv.Signed
		}
		if sig, ok := e.scope.lookupSignal(v.Name); ok {
			return sig.Signed
		}
		return false
	case *vlog.Unary:
		switch v.Op {
		case vlog.PLUS, vlog.MINUS, vlog.TILD:
			return exprSigned(e, v.X)
		}
		return false
	case *vlog.Binary:
		switch v.Op {
		case vlog.PLUS, vlog.MINUS, vlog.STAR, vlog.SLASH, vlog.PERCENT,
			vlog.AND, vlog.OR, vlog.XOR, vlog.XNOR:
			return exprSigned(e, v.X) && exprSigned(e, v.Y)
		case vlog.SHL, vlog.SHR, vlog.ASHL, vlog.ASHR, vlog.POW:
			return exprSigned(e, v.X)
		}
		return false
	case *vlog.Ternary:
		return exprSigned(e, v.Then) && exprSigned(e, v.Else)
	case *vlog.Call:
		if v.Name == "$signed" {
			return true
		}
		if v.Name == "$unsigned" {
			return false
		}
		if f, _, ok := e.scope.lookupFunc(v.Name); ok {
			return f.Signed
		}
		return false
	}
	return false
}

func lookupSig(e env, name string) (*Signal, bool) {
	return e.scope.lookupSignal(name)
}

// resolveHier resolves inst.sig (one or more instance levels).
func resolveHier(e env, h *vlog.HierIdent) (*Signal, error) {
	sc := e.scope.moduleScope()
	// Climb: the first part may name a child at any enclosing level.
	for base := sc; base != nil; base = base.Parent {
		cur := base
		ok := true
		for i := 0; i < len(h.Parts)-1; i++ {
			child, found := cur.Childs[h.Parts[i]]
			if !found {
				ok = false
				break
			}
			cur = child
		}
		if ok {
			if sig, found := cur.Signals[h.Parts[len(h.Parts)-1]]; found {
				return sig, nil
			}
		}
	}
	return nil, e.errf("cannot resolve hierarchical name %v", h.Parts)
}

// ---- Evaluation ----

// eval evaluates x with context width ctx (0 = self-determined).
func eval(e env, x vlog.Expr, ctx int) (Value, error) {
	if e.depth > maxCallDepth {
		return Value{}, e.errf("expression evaluation too deep")
	}
	switch v := x.(type) {
	case *vlog.Number:
		val := FromNumber(v)
		if ctx > val.Width {
			val = val.Resize(ctx)
		}
		return val, nil
	case *vlog.RealLit:
		// Reals appear only in delays; round to integer ticks.
		return FromUint64(uint64(v.Value+0.5), 64), nil
	case *vlog.StringLit:
		return FromString(v.Value), nil
	case *vlog.Ident:
		return evalIdent(e, v, ctx)
	case *vlog.HierIdent:
		sig, err := resolveHier(e, v)
		if err != nil {
			return Value{}, err
		}
		val := sig.Val.Clone()
		if ctx > val.Width {
			val = val.Resize(ctx)
		}
		return val, nil
	case *vlog.Unary:
		return evalUnary(e, v, ctx)
	case *vlog.Binary:
		return evalBinary(e, v, ctx)
	case *vlog.Ternary:
		return evalTernary(e, v, ctx)
	case *vlog.Concat:
		parts := make([]Value, len(v.Parts))
		for i, p := range v.Parts {
			pv, err := eval(e, p, 0)
			if err != nil {
				return Value{}, err
			}
			parts[i] = pv
		}
		out := ConcatValues(parts)
		if ctx > out.Width {
			out = out.Resize(ctx)
		}
		return out, nil
	case *vlog.Repl:
		cntV, err := eval(e, v.Count, 0)
		if err != nil {
			return Value{}, err
		}
		cnt, ok := cntV.Int64()
		if !ok || cnt < 0 || cnt > 1<<16 {
			return Value{}, e.errf("bad replication count")
		}
		var inner []Value
		for _, p := range v.Parts {
			pv, err := eval(e, p, 0)
			if err != nil {
				return Value{}, err
			}
			inner = append(inner, pv)
		}
		one := ConcatValues(inner)
		parts := make([]Value, cnt)
		for i := range parts {
			parts[i] = one
		}
		out := ConcatValues(parts)
		if out.Width == 0 {
			out = NewZero(1)
		}
		if ctx > out.Width {
			out = out.Resize(ctx)
		}
		return out, nil
	case *vlog.Index:
		return evalIndex(e, v, ctx)
	case *vlog.PartSelect:
		return evalPartSelect(e, v, ctx)
	case *vlog.Call:
		return evalCall(e, v, ctx)
	}
	return Value{}, e.errf("cannot evaluate %T", x)
}

func evalIdent(e env, id *vlog.Ident, ctx int) (Value, error) {
	if e.frame != nil {
		if fv, ok := e.frame.vars[id.Name]; ok {
			val := fv.Clone()
			if ctx > val.Width {
				val = val.Resize(ctx)
			}
			return val, nil
		}
	}
	if pv, ok := e.scope.lookupParam(id.Name); ok {
		val := pv.Clone()
		if ctx > val.Width {
			val = val.Resize(ctx)
		}
		return val, nil
	}
	if sig, ok := e.scope.lookupSignal(id.Name); ok {
		if sig.Array != nil {
			return Value{}, e.errf("memory %q used without an index", id.Name)
		}
		if e.sim == nil {
			return Value{}, e.errf("signal %q referenced in constant expression", id.Name)
		}
		val := sig.Val.Clone()
		if ctx > val.Width {
			val = val.Resize(ctx)
		}
		return val, nil
	}
	return Value{}, e.errf("unknown identifier %q", id.Name)
}

func evalUnary(e env, u *vlog.Unary, ctx int) (Value, error) {
	switch u.Op {
	case vlog.NOT:
		xv, err := eval(e, u.X, 0)
		if err != nil {
			return Value{}, err
		}
		if !xv.IsDefined() {
			return allX(1), nil
		}
		if xv.IsTrue() {
			return FromUint64(0, 1), nil
		}
		return FromUint64(1, 1), nil
	case vlog.AND, vlog.NAND, vlog.OR, vlog.NOR, vlog.XOR, vlog.XNOR:
		xv, err := eval(e, u.X, 0)
		if err != nil {
			return Value{}, err
		}
		var r Value
		switch u.Op {
		case vlog.AND:
			r = RedAnd(xv)
		case vlog.NAND:
			r = Not(RedAnd(xv))
		case vlog.OR:
			r = RedOr(xv)
		case vlog.NOR:
			r = Not(RedOr(xv))
		case vlog.XOR:
			r = RedXor(xv)
		default:
			r = Not(RedXor(xv))
		}
		return r, nil
	case vlog.TILD, vlog.PLUS, vlog.MINUS:
		w, err := exprWidth(e, u.X)
		if err != nil {
			return Value{}, err
		}
		if ctx > w {
			w = ctx
		}
		xv, err := eval(e, u.X, w)
		if err != nil {
			return Value{}, err
		}
		xv = xv.Resize(w)
		xv.Signed = exprSigned(e, u.X)
		switch u.Op {
		case vlog.TILD:
			return Not(xv), nil
		case vlog.MINUS:
			r := Neg(xv)
			r.Signed = xv.Signed
			return r, nil
		default:
			return xv, nil
		}
	}
	return Value{}, e.errf("unsupported unary operator %v", u.Op)
}

func evalBinary(e env, b *vlog.Binary, ctx int) (Value, error) {
	switch b.Op {
	case vlog.LAND, vlog.LOR:
		xv, err := eval(e, b.X, 0)
		if err != nil {
			return Value{}, err
		}
		// Short-circuit where the outcome is decided.
		if b.Op == vlog.LAND && xv.IsDefined() && !xv.IsTrue() {
			return FromUint64(0, 1), nil
		}
		if b.Op == vlog.LOR && xv.IsTrue() {
			return FromUint64(1, 1), nil
		}
		yv, err := eval(e, b.Y, 0)
		if err != nil {
			return Value{}, err
		}
		xt, yt := xv.IsTrue(), yv.IsTrue()
		xd, yd := xv.IsDefined(), yv.IsDefined()
		if b.Op == vlog.LAND {
			switch {
			case xt && yt:
				return FromUint64(1, 1), nil
			case (xd && !xt) || (yd && !yt):
				return FromUint64(0, 1), nil
			default:
				return allX(1), nil
			}
		}
		switch {
		case xt || yt:
			return FromUint64(1, 1), nil
		case xd && yd:
			return FromUint64(0, 1), nil
		default:
			return allX(1), nil
		}

	case vlog.EQEQ, vlog.NEQ, vlog.CASEEQ, vlog.CASENE,
		vlog.LT, vlog.LE, vlog.GT, vlog.GE:
		wx, err := exprWidth(e, b.X)
		if err != nil {
			return Value{}, err
		}
		wy, err := exprWidth(e, b.Y)
		if err != nil {
			return Value{}, err
		}
		w := wx
		if wy > w {
			w = wy
		}
		signed := exprSigned(e, b.X) && exprSigned(e, b.Y)
		xv, err := eval(e, b.X, w)
		if err != nil {
			return Value{}, err
		}
		yv, err := eval(e, b.Y, w)
		if err != nil {
			return Value{}, err
		}
		xv.Signed, yv.Signed = exprSigned(e, b.X), exprSigned(e, b.Y)
		xv, yv = xv.Resize(w), yv.Resize(w)
		switch b.Op {
		case vlog.EQEQ:
			return LogicEq(xv, yv), nil
		case vlog.NEQ:
			return Not(LogicEq(xv, yv)), nil
		case vlog.CASEEQ:
			return CaseEq(xv, yv), nil
		case vlog.CASENE:
			return Not(CaseEq(xv, yv)), nil
		}
		cmp, ok := Cmp(xv, yv, signed)
		if !ok {
			return allX(1), nil
		}
		var res bool
		switch b.Op {
		case vlog.LT:
			res = cmp < 0
		case vlog.LE:
			res = cmp <= 0
		case vlog.GT:
			res = cmp > 0
		default:
			res = cmp >= 0
		}
		if res {
			return FromUint64(1, 1), nil
		}
		return FromUint64(0, 1), nil

	case vlog.SHL, vlog.SHR, vlog.ASHL, vlog.ASHR:
		wx, err := exprWidth(e, b.X)
		if err != nil {
			return Value{}, err
		}
		if ctx > wx {
			wx = ctx
		}
		xv, err := eval(e, b.X, wx)
		if err != nil {
			return Value{}, err
		}
		xv = xv.Resize(wx)
		xv.Signed = exprSigned(e, b.X)
		yv, err := eval(e, b.Y, 0)
		if err != nil {
			return Value{}, err
		}
		n, ok := yv.Int64()
		if !ok || n < 0 {
			return allX(wx), nil
		}
		if n > int64(wx) {
			n = int64(wx)
		}
		switch b.Op {
		case vlog.SHL, vlog.ASHL:
			return ShiftLeft(xv, int(n)), nil
		case vlog.SHR:
			out := ShiftRight(xv, int(n), false)
			return out, nil
		default:
			return ShiftRight(xv, int(n), true), nil
		}

	case vlog.POW:
		wx, err := exprWidth(e, b.X)
		if err != nil {
			return Value{}, err
		}
		if ctx > wx {
			wx = ctx
		}
		xv, err := eval(e, b.X, wx)
		if err != nil {
			return Value{}, err
		}
		yv, err := eval(e, b.Y, 0)
		if err != nil {
			return Value{}, err
		}
		return Pow(xv.Resize(wx), yv), nil
	}

	// Context-sized arithmetic and bitwise operators.
	wx, err := exprWidth(e, b.X)
	if err != nil {
		return Value{}, err
	}
	wy, err := exprWidth(e, b.Y)
	if err != nil {
		return Value{}, err
	}
	w := wx
	if wy > w {
		w = wy
	}
	if ctx > w {
		w = ctx
	}
	signed := exprSigned(e, b.X) && exprSigned(e, b.Y)
	xv, err := eval(e, b.X, w)
	if err != nil {
		return Value{}, err
	}
	yv, err := eval(e, b.Y, w)
	if err != nil {
		return Value{}, err
	}
	xv.Signed, yv.Signed = exprSigned(e, b.X), exprSigned(e, b.Y)
	xv, yv = xv.Resize(w), yv.Resize(w)
	xv.Signed, yv.Signed = signed, signed
	var out Value
	switch b.Op {
	case vlog.PLUS:
		out = Add(xv, yv)
	case vlog.MINUS:
		out = Sub(xv, yv)
	case vlog.STAR:
		out = Mul(xv, yv)
	case vlog.SLASH:
		out, _ = DivMod(xv, yv)
	case vlog.PERCENT:
		_, out = DivMod(xv, yv)
	case vlog.AND:
		out = And(xv, yv)
	case vlog.OR:
		out = Or(xv, yv)
	case vlog.XOR:
		out = Xor(xv, yv)
	case vlog.XNOR:
		out = Not(Xor(xv, yv))
	default:
		return Value{}, e.errf("unsupported binary operator %v", b.Op)
	}
	out.Signed = signed
	return out, nil
}

func evalTernary(e env, t *vlog.Ternary, ctx int) (Value, error) {
	cv, err := eval(e, t.Cond, 0)
	if err != nil {
		return Value{}, err
	}
	wt, err := exprWidth(e, t.Then)
	if err != nil {
		return Value{}, err
	}
	we, err := exprWidth(e, t.Else)
	if err != nil {
		return Value{}, err
	}
	w := wt
	if we > w {
		w = we
	}
	if ctx > w {
		w = ctx
	}
	if !cv.IsDefined() {
		// 4-state blend: bits that agree survive, others become x.
		tv, err := eval(e, t.Then, w)
		if err != nil {
			return Value{}, err
		}
		ev, err := eval(e, t.Else, w)
		if err != nil {
			return Value{}, err
		}
		tv, ev = tv.Resize(w), ev.Resize(w)
		out := NewZero(w)
		for i := 0; i < w; i++ {
			ta, tb := tv.Bit(i)
			ea, eb := ev.Bit(i)
			if ta == ea && tb == eb && tb == 0 {
				out.setBit(i, ta, tb)
			} else {
				out.setBit(i, 1, 1)
			}
		}
		return out, nil
	}
	if cv.IsTrue() {
		tv, err := eval(e, t.Then, w)
		if err != nil {
			return Value{}, err
		}
		return tv.Resize(w), nil
	}
	ev2, err := eval(e, t.Else, w)
	if err != nil {
		return Value{}, err
	}
	return ev2.Resize(w), nil
}

func evalIndex(e env, ix *vlog.Index, ctx int) (Value, error) {
	// Memory word access?
	if id, ok := ix.X.(*vlog.Ident); ok {
		if sig, found := lookupSig(e, id.Name); found && sig.Array != nil {
			if e.sim == nil {
				return Value{}, e.errf("memory read in constant expression")
			}
			idxV, err := eval(e, ix.Idx, 0)
			if err != nil {
				return Value{}, err
			}
			idx, ok := idxV.Int64()
			if !ok {
				return allX(sig.Width), nil
			}
			w := int(idx)
			if w < sig.ArrLo || w > sig.ArrHi {
				return allX(sig.Width), nil
			}
			return sig.Array[w-sig.ArrLo].Clone(), nil
		}
	}
	base, err := eval(e, ix.X, 0)
	if err != nil {
		return Value{}, err
	}
	lo := 0
	if id, ok := ix.X.(*vlog.Ident); ok {
		if sig, found := lookupSig(e, id.Name); found {
			lo = sig.VecLo
		}
	}
	idxV, err := eval(e, ix.Idx, 0)
	if err != nil {
		return Value{}, err
	}
	idx, ok := idxV.Int64()
	if !ok {
		return allX(1), nil
	}
	return Slice(base, int(idx)-lo, 1), nil
}

func evalPartSelect(e env, ps *vlog.PartSelect, ctx int) (Value, error) {
	base, err := eval(e, ps.X, 0)
	if err != nil {
		return Value{}, err
	}
	veclo := 0
	if id, ok := ps.X.(*vlog.Ident); ok {
		if sig, found := lookupSig(e, id.Name); found {
			veclo = sig.VecLo
		}
	}
	switch ps.Mode {
	case vlog.PartConst:
		mv, err := eval(e, ps.Left, 0)
		if err != nil {
			return Value{}, err
		}
		lv, err := eval(e, ps.Right, 0)
		if err != nil {
			return Value{}, err
		}
		m, ok1 := mv.Int64()
		l, ok2 := lv.Int64()
		if !ok1 || !ok2 {
			return Value{}, e.errf("part-select bounds are x/z")
		}
		lo, hi := int(l), int(m)
		if lo > hi {
			lo, hi = hi, lo
		}
		return Slice(base, lo-veclo, hi-lo+1), nil
	case vlog.PartUp:
		bv, err := eval(e, ps.Left, 0)
		if err != nil {
			return Value{}, err
		}
		wv, err := eval(e, ps.Right, 0)
		if err != nil {
			return Value{}, err
		}
		b, ok1 := bv.Int64()
		w, ok2 := wv.Int64()
		if !ok2 || w <= 0 {
			return Value{}, e.errf("bad indexed part-select width")
		}
		if !ok1 {
			return allX(int(w)), nil
		}
		return Slice(base, int(b)-veclo, int(w)), nil
	default: // PartDown
		bv, err := eval(e, ps.Left, 0)
		if err != nil {
			return Value{}, err
		}
		wv, err := eval(e, ps.Right, 0)
		if err != nil {
			return Value{}, err
		}
		b, ok1 := bv.Int64()
		w, ok2 := wv.Int64()
		if !ok2 || w <= 0 {
			return Value{}, e.errf("bad indexed part-select width")
		}
		if !ok1 {
			return allX(int(w)), nil
		}
		return Slice(base, int(b)-int(w)+1-veclo, int(w)), nil
	}
}

// evalCall dispatches system functions and user functions.
func evalCall(e env, c *vlog.Call, ctx int) (Value, error) {
	switch c.Name {
	case "$time", "$stime", "$realtime":
		if e.sim == nil {
			return Value{}, e.errf("%s in constant expression", c.Name)
		}
		return FromUint64(e.sim.now, 64), nil
	case "$random", "$urandom":
		if e.sim == nil {
			return Value{}, e.errf("%s in constant expression", c.Name)
		}
		v := FromUint64(uint64(e.sim.rng.Uint32()), 32)
		v.Signed = c.Name == "$random"
		return v, nil
	case "$clog2":
		if len(c.Args) != 1 {
			return Value{}, e.errf("$clog2 takes one argument")
		}
		av, err := eval(e, c.Args[0], 0)
		if err != nil {
			return Value{}, err
		}
		n, ok := av.Uint64()
		if !ok {
			return allX(32), nil
		}
		r := 0
		for (uint64(1) << r) < n {
			r++
		}
		return FromUint64(uint64(r), 32), nil
	case "$signed", "$unsigned":
		if len(c.Args) != 1 {
			return Value{}, e.errf("%s takes one argument", c.Name)
		}
		v, err := eval(e, c.Args[0], 0)
		if err != nil {
			return Value{}, err
		}
		v.Signed = c.Name == "$signed"
		return v, nil
	case "$bits":
		if len(c.Args) != 1 {
			return Value{}, e.errf("$bits takes one argument")
		}
		w, err := exprWidth(e, c.Args[0])
		if err != nil {
			return Value{}, err
		}
		return FromUint64(uint64(w), 32), nil
	}
	if len(c.Name) > 0 && c.Name[0] == '$' {
		return Value{}, e.errf("unsupported system function %s", c.Name)
	}

	f, fsc, ok := e.scope.lookupFunc(c.Name)
	if !ok {
		return Value{}, e.errf("unknown function %q", c.Name)
	}
	if len(c.Args) != len(f.Inputs) {
		return Value{}, e.errf("function %s expects %d args, got %d", c.Name, len(f.Inputs), len(c.Args))
	}
	// The return variable is bound first, so a port or local of the same
	// name shadows it.
	kind := vlog.DeclReg
	if f.Integer {
		kind = vlog.DeclInteger
	}
	ret, err := e.d.newVar(fsc, &vlog.Decl{Kind: kind, Vec: f.Ret, Signed: f.Signed})
	if err != nil {
		return Value{}, err
	}
	fr := &frame{vars: map[string]*Value{f.Name: ret}}
	if err := bindFrame(e, fsc, fr, f.Inputs, f.Locals, c.Args); err != nil {
		return Value{}, err
	}
	fe := env{d: e.d, sim: e.sim, scope: fsc, frame: fr, depth: e.depth + 1}
	px := procExec{budget: maxFuncSteps}
	if err := px.exec(fe, f.Body); err != nil {
		// Any disable that no enclosing block of the body names, `disable
		// f;` among them, returns from the function.
		if _, ok := err.(errDisabled); !ok {
			return Value{}, err
		}
	}
	out := fr.vars[f.Name].Clone()
	if ctx > out.Width {
		out = out.Resize(ctx)
	}
	return out, nil
}
