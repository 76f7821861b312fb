package vsim

import (
	"freehw/internal/vlog"
)

// lvSlice is one resolved piece of an assignment target.
type lvSlice struct {
	sig   *Signal
	fvar  *Value // function/task frame variable (sig==nil)
	word  int    // absolute memory index, or -1
	lo    int    // bit offset within the target
	width int
	// dynamic index was x/z: the write is dropped (Verilog semantics).
	invalid bool
}

// resolveLV resolves an assignment target into MSB-first slices.
func resolveLV(e env, x vlog.Expr) ([]lvSlice, int, error) {
	switch v := x.(type) {
	case *vlog.Ident:
		if e.frame != nil {
			if fv, ok := e.frame.vars[v.Name]; ok {
				return []lvSlice{{fvar: fv, word: -1, lo: 0, width: fv.Width}}, fv.Width, nil
			}
		}
		sig, ok := e.scope.lookupSignal(v.Name)
		if !ok {
			return nil, 0, e.errf("unknown assignment target %q", v.Name)
		}
		if sig.Array != nil {
			return nil, 0, e.errf("memory %q assigned without index", v.Name)
		}
		return []lvSlice{{sig: sig, word: -1, lo: 0, width: sig.Width}}, sig.Width, nil

	case *vlog.HierIdent:
		sig, err := resolveHier(e, v)
		if err != nil {
			return nil, 0, err
		}
		return []lvSlice{{sig: sig, word: -1, lo: 0, width: sig.Width}}, sig.Width, nil

	case *vlog.Index:
		// Memory word or vector bit.
		if id, ok := v.X.(*vlog.Ident); ok {
			if e.frame != nil {
				if fv, ok2 := e.frame.vars[id.Name]; ok2 {
					idx, defined, err := evalIndexVal(e, v.Idx)
					if err != nil {
						return nil, 0, err
					}
					if !defined {
						return []lvSlice{{invalid: true, width: 1, word: -1}}, 1, nil
					}
					return []lvSlice{{fvar: fv, word: -1, lo: idx, width: 1}}, 1, nil
				}
			}
			sig, ok2 := e.scope.lookupSignal(id.Name)
			if !ok2 {
				return nil, 0, e.errf("unknown assignment target %q", id.Name)
			}
			idx, defined, err := evalIndexVal(e, v.Idx)
			if err != nil {
				return nil, 0, err
			}
			if sig.Array != nil {
				if !defined || idx < sig.ArrLo || idx > sig.ArrHi {
					return []lvSlice{{invalid: true, width: sig.Width, word: -1}}, sig.Width, nil
				}
				return []lvSlice{{sig: sig, word: idx, lo: 0, width: sig.Width}}, sig.Width, nil
			}
			if !defined {
				return []lvSlice{{invalid: true, width: 1, word: -1}}, 1, nil
			}
			return []lvSlice{{sig: sig, word: -1, lo: idx - sig.VecLo, width: 1}}, 1, nil
		}
		// Bit select of a memory word: mem[i][j]
		if inner, ok := v.X.(*vlog.Index); ok {
			if id, ok2 := inner.X.(*vlog.Ident); ok2 {
				sig, ok3 := e.scope.lookupSignal(id.Name)
				if ok3 && sig.Array != nil {
					word, d1, err := evalIndexVal(e, inner.Idx)
					if err != nil {
						return nil, 0, err
					}
					bit, d2, err := evalIndexVal(e, v.Idx)
					if err != nil {
						return nil, 0, err
					}
					if !d1 || !d2 || word < sig.ArrLo || word > sig.ArrHi {
						return []lvSlice{{invalid: true, width: 1, word: -1}}, 1, nil
					}
					return []lvSlice{{sig: sig, word: word, lo: bit - sig.VecLo, width: 1}}, 1, nil
				}
			}
		}
		return nil, 0, e.errf("unsupported assignment target")

	case *vlog.PartSelect:
		id, ok := v.X.(*vlog.Ident)
		if !ok {
			// Part select of memory word: mem[i][7:0]
			if inner, ok2 := v.X.(*vlog.Index); ok2 {
				if mid, ok3 := inner.X.(*vlog.Ident); ok3 {
					sig, ok4 := e.scope.lookupSignal(mid.Name)
					if ok4 && sig.Array != nil {
						word, d1, err := evalIndexVal(e, inner.Idx)
						if err != nil {
							return nil, 0, err
						}
						lo, w, d2, err := partBounds(e, v, sig.VecLo)
						if err != nil {
							return nil, 0, err
						}
						if !d1 || !d2 || word < sig.ArrLo || word > sig.ArrHi {
							return []lvSlice{{invalid: true, width: w, word: -1}}, w, nil
						}
						return []lvSlice{{sig: sig, word: word, lo: lo, width: w}}, w, nil
					}
				}
			}
			return nil, 0, e.errf("unsupported part-select target")
		}
		if e.frame != nil {
			if fv, ok2 := e.frame.vars[id.Name]; ok2 {
				lo, w, defined, err := partBounds(e, v, 0)
				if err != nil {
					return nil, 0, err
				}
				if !defined {
					return []lvSlice{{invalid: true, width: w, word: -1}}, w, nil
				}
				return []lvSlice{{fvar: fv, word: -1, lo: lo, width: w}}, w, nil
			}
		}
		sig, ok2 := e.scope.lookupSignal(id.Name)
		if !ok2 {
			return nil, 0, e.errf("unknown assignment target %q", id.Name)
		}
		lo, w, defined, err := partBounds(e, v, sig.VecLo)
		if err != nil {
			return nil, 0, err
		}
		if !defined {
			return []lvSlice{{invalid: true, width: w, word: -1}}, w, nil
		}
		return []lvSlice{{sig: sig, word: -1, lo: lo, width: w}}, w, nil

	case *vlog.Concat:
		var all []lvSlice
		total := 0
		for _, part := range v.Parts {
			sl, w, err := resolveLV(e, part)
			if err != nil {
				return nil, 0, err
			}
			all = append(all, sl...)
			total += w
		}
		return all, total, nil
	}
	return nil, 0, e.errf("invalid assignment target %T", x)
}

func evalIndexVal(e env, x vlog.Expr) (idx int, defined bool, err error) {
	v, err := eval(e, x, 0)
	if err != nil {
		return 0, false, err
	}
	i64, ok := v.Int64()
	if !ok {
		return 0, false, nil
	}
	return int(i64), true, nil
}

// partBounds computes (lo offset, width) for a part-select target.
func partBounds(e env, ps *vlog.PartSelect, vecLo int) (lo, w int, defined bool, err error) {
	switch ps.Mode {
	case vlog.PartConst:
		m, d1, err := evalIndexVal(e, ps.Left)
		if err != nil {
			return 0, 0, false, err
		}
		l, d2, err := evalIndexVal(e, ps.Right)
		if err != nil {
			return 0, 0, false, err
		}
		if l > m {
			m, l = l, m
		}
		return l - vecLo, m - l + 1, d1 && d2, nil
	case vlog.PartUp:
		b, d1, err := evalIndexVal(e, ps.Left)
		if err != nil {
			return 0, 0, false, err
		}
		wv, d2, err := evalIndexVal(e, ps.Right)
		if err != nil {
			return 0, 0, false, err
		}
		if !d2 || wv <= 0 {
			return 0, 1, false, nil
		}
		return b - vecLo, wv, d1, nil
	default:
		b, d1, err := evalIndexVal(e, ps.Left)
		if err != nil {
			return 0, 0, false, err
		}
		wv, d2, err := evalIndexVal(e, ps.Right)
		if err != nil {
			return 0, 0, false, err
		}
		if !d2 || wv <= 0 {
			return 0, 1, false, nil
		}
		return b - wv + 1 - vecLo, wv, d1, nil
	}
}

// storeSlices writes val into the resolved slices (MSB-first layout).
// Writes to nets are rejected unless asDriver is provided (continuous
// assignment context), in which case each net write goes through the driver.
func storeSlices(e env, slices []lvSlice, total int, val Value, drv map[*Signal]*driver) error {
	val = val.Resize(total)
	pos := total
	for _, sl := range slices {
		pos -= sl.width
		piece := Slice(val, pos, sl.width)
		if sl.invalid {
			continue
		}
		switch {
		case sl.fvar != nil:
			*sl.fvar = Insert(*sl.fvar, sl.lo, piece)
		case sl.sig != nil && sl.word >= 0:
			sig := sl.sig
			w := sl.word - sig.ArrLo
			sig.Array[w] = Insert(sig.Array[w], sl.lo, piece)
			if e.sim != nil {
				e.sim.signalChanged(sig)
			}
		case sl.sig != nil:
			sig := sl.sig
			if sig.IsNet {
				if drv == nil {
					return e.errf("procedural assignment to net %q", sig.FullName)
				}
				dr, ok := drv[sig]
				if !ok {
					dr = &driver{val: NewZ(sig.Width)}
					drv[sig] = dr
					sig.drivers = append(sig.drivers, dr)
				}
				dr.val = Insert(dr.val, sl.lo, piece)
				if e.sim != nil {
					e.sim.resolveNet(sig)
				}
				continue
			}
			old := sig.Val
			sig.Val = Insert(sig.Val, sl.lo, piece)
			sig.Val.Signed = sig.Signed
			if e.sim != nil && !old.Equal4(sig.Val) {
				e.sim.signalChanged(sig)
			}
		}
	}
	return nil
}

// caseMatch tests one case item expression against the selector.
func caseMatch(kind vlog.CaseKind, sel, item Value) bool {
	w := sel.Width
	if item.Width > w {
		w = item.Width
	}
	s := sel.Resize(w)
	it := item.Resize(w)
	for i := 0; i < w; i++ {
		sa, sb := s.Bit(i)
		ia, ib := it.Bit(i)
		switch kind {
		case vlog.CaseExact:
			if sa != ia || sb != ib {
				return false
			}
		case vlog.CaseZ:
			// z (b=1,a=0) on either side is a wildcard.
			if (sb == 1 && sa == 0) || (ib == 1 && ia == 0) {
				continue
			}
			if sa != ia || sb != ib {
				return false
			}
		case vlog.CaseX:
			// any x or z on either side is a wildcard.
			if sb == 1 || ib == 1 {
				continue
			}
			if sa != ia {
				return false
			}
		}
	}
	return true
}

// maxFuncSteps bounds the statements a process runs between two timing
// controls, and those one function call runs.
const maxFuncSteps = 4 << 20
