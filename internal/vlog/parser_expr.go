package vlog

// Binary operator precedence, higher binds tighter. Mirrors IEEE 1364 §5.1.2.
func binPrec(k Kind) int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case OR:
		return 3
	case XOR, XNOR:
		return 4
	case AND:
		return 5
	case EQEQ, NEQ, CASEEQ, CASENE:
		return 6
	case LT, LE, GT, GE:
		return 7
	case SHL, SHR, ASHL, ASHR:
		return 8
	case PLUS, MINUS:
		return 9
	case STAR, SLASH, PERCENT:
		return 10
	case POW:
		return 11
	}
	return 0
}

// parseExpr parses a full expression including the ternary operator.
func (p *Parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.accept(QUESTION) {
		return cond, nil
	}
	pos := p.cur().Pos
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	elseE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Ternary{Pos: pos, Cond: cond, Then: thenE, Else: elseE}, nil
}

// parseBinary is precedence-climbing over binary operators.
func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.cur().Kind
		prec := binPrec(op)
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		pos := p.cur().Pos
		p.advance()
		// ** is right-associative; all others left-associative.
		nextMin := prec + 1
		if op == POW {
			nextMin = prec
		}
		if op == POW { // right-associative: the one chain of operators that recurses
			if err := p.nest(); err != nil {
				return nil, err
			}
		}
		rhs, err := p.parseBinary(nextMin)
		if err != nil {
			return nil, err
		}
		if op == POW {
			p.unnest()
		}
		lhs = &Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NOT, TILD, AND, NAND, OR, NOR, XOR, XNOR, PLUS, MINUS:
		p.advance()
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.unnest()
		return &Unary{Pos: t.Pos, Op: t.Kind, X: x}, nil
	}
	return p.parsePrimary()
}

// parsePrimary parses a primary expression followed by any selects.
func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case NUMBER:
		p.advance()
		return parseNumericToken(t)
	case STRING:
		p.advance()
		return &StringLit{Pos: t.Pos, Value: t.Text}, nil
	case SYSNAME:
		p.advance()
		c := &Call{Pos: t.Pos, Name: t.Text}
		if p.accept(LPAREN) {
			if !p.accept(RPAREN) {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.Args = append(c.Args, e)
					if p.accept(COMMA) {
						continue
					}
					break
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
		}
		return c, nil
	case IDENT:
		p.advance()
		if p.cur().Kind == LPAREN {
			p.advance()
			c := &Call{Pos: t.Pos, Name: t.Text}
			if !p.accept(RPAREN) {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					c.Args = append(c.Args, e)
					if p.accept(COMMA) {
						continue
					}
					break
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
			return p.parseSelects(c)
		}
		var base Expr = &Ident{Pos: t.Pos, Name: t.Text}
		if p.cur().Kind == DOT {
			parts := []string{t.Text}
			for p.accept(DOT) {
				n, _, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				parts = append(parts, n)
			}
			base = &HierIdent{Pos: t.Pos, Parts: parts}
		}
		return p.parseSelects(base)
	case LPAREN:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case LBRACE:
		p.advance()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().Kind == LBRACE {
			// Replication {N{a,b}}.
			p.advance()
			r := &Repl{Pos: t.Pos, Count: first}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				r.Parts = append(r.Parts, e)
				if p.accept(COMMA) {
					continue
				}
				break
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			return p.parseSelects(r)
		}
		c := &Concat{Pos: t.Pos, Parts: []Expr{first}}
		for p.accept(COMMA) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return p.parseSelects(c)
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

// parseSelects attaches [i], [m:l], [i+:w], [i-:w] chains to base.
func (p *Parser) parseSelects(base Expr) (Expr, error) {
	for p.cur().Kind == LBRACK {
		pos := p.cur().Pos
		p.advance()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch p.cur().Kind {
		case COLON:
			p.advance()
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &PartSelect{Pos: pos, X: base, Mode: PartConst, Left: first, Right: lsb}
		case PLUSCOLON:
			p.advance()
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &PartSelect{Pos: pos, X: base, Mode: PartUp, Left: first, Right: w}
		case MINUSCOLON:
			p.advance()
			w, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &PartSelect{Pos: pos, X: base, Mode: PartDown, Left: first, Right: w}
		default:
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			base = &Index{Pos: pos, X: base, Idx: first}
		}
	}
	return base, nil
}
