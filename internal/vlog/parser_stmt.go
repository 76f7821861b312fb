package vlog

// parseStmt parses one behavioral statement.
func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	s, err := p.stmt()
	p.unnest()
	return s, err
}

// stmt is parseStmt inside its nesting level (see moduleItem).
func (p *Parser) stmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case SEMI:
		p.advance()
		return keep(p, &p.nodes.NullStmt, NullStmt{Pos: t.Pos}), nil
	case HASH:
		p.advance()
		d, err := p.parseDelayValue()
		if err != nil {
			return nil, err
		}
		if p.kind() == SEMI {
			p.advance()
			return keep(p, &p.nodes.DelayStmt, DelayStmt{Pos: t.Pos, Delay: d}), nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return keep(p, &p.nodes.DelayStmt, DelayStmt{Pos: t.Pos, Delay: d, Stmt: s}), nil
	case AT:
		p.advance()
		ev := keep(p, &p.nodes.EventStmt, EventStmt{Pos: t.Pos})
		if p.accept(STAR) {
			ev.Star = true
		} else if p.accept(LPAREN) {
			if p.accept(STAR) {
				ev.Star = true
				if err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			} else {
				for {
					e := EventExpr{}
					if p.acceptKw("posedge") {
						e.Edge = "posedge"
					} else if p.acceptKw("negedge") {
						e.Edge = "negedge"
					}
					x, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					e.X = x
					ev.Events = add(p, ev.Events, e)
					if p.accept(COMMA) || p.acceptKw("or") {
						continue
					}
					break
				}
				if err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
		} else if p.kind() == IDENT {
			// @ident — named event or signal.
			name := p.next().Text
			ev.Events = add(p, nil, EventExpr{X: keep(p, &p.nodes.Ident, Ident{Pos: t.Pos, Name: name})})
		} else {
			return nil, p.errorf("malformed event control")
		}
		if p.kind() == SEMI {
			p.advance()
			return ev, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		ev.Stmt = s
		return ev, nil
	case SYSNAME:
		p.advance()
		st := keep(p, &p.nodes.SysTaskStmt, SysTaskStmt{Pos: t.Pos, Name: t.Text})
		if p.accept(LPAREN) {
			if !p.accept(RPAREN) {
				for {
					// $display allows empty args: $display(,) is rare; require exprs.
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					st.Args = add(p, st.Args, e)
					if p.accept(COMMA) {
						continue
					}
					break
				}
				if err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return st, nil
	case ARROW:
		p.advance()
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect(SEMI); err != nil {
			return nil, err
		}
		// Event trigger behaves as a zero-width pulse on the named event.
		return keep(p, &p.nodes.TaskCallStmt, TaskCallStmt{Pos: t.Pos, Name: "->" + name}), nil
	case LBRACE:
		// Concatenation lvalue assignment: {a,b} = expr;
		return p.parseAssignLike()
	case IDENT:
		// Assignment or task call.
		if p.peek().Kind == SEMI {
			p.advance()
			p.advance()
			return keep(p, &p.nodes.TaskCallStmt, TaskCallStmt{Pos: t.Pos, Name: t.Text}), nil
		}
		if p.peek().Kind == LPAREN {
			// Task call with arguments.
			name := p.next().Text
			p.advance() // (
			var args []Expr
			if !p.accept(RPAREN) {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = add(p, args, e)
					if p.accept(COMMA) {
						continue
					}
					break
				}
				if err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			}
			if err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.TaskCallStmt, TaskCallStmt{Pos: t.Pos, Name: name, Args: args}), nil
		}
		return p.parseAssignLike()
	case KEYWORD:
		switch t.Text {
		case "begin":
			return p.parseBlock()
		case "if":
			return p.parseIf()
		case "case", "casez", "casex":
			return p.parseCase()
		case "for":
			return p.parseFor()
		case "while":
			p.advance()
			if err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.WhileStmt, WhileStmt{Pos: t.Pos, Cond: cond, Body: body}), nil
		case "repeat":
			p.advance()
			if err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			cnt, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.RepeatStmt, RepeatStmt{Pos: t.Pos, Count: cnt, Body: body}), nil
		case "forever":
			p.advance()
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.ForeverStmt, ForeverStmt{Pos: t.Pos, Body: body}), nil
		case "wait":
			p.advance()
			if err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			if p.kind() == SEMI {
				p.advance()
				return keep(p, &p.nodes.WaitStmt, WaitStmt{Pos: t.Pos, Cond: cond}), nil
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.WaitStmt, WaitStmt{Pos: t.Pos, Cond: cond, Stmt: body}), nil
		case "disable":
			p.advance()
			name, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return keep(p, &p.nodes.DisableStmt, DisableStmt{Pos: t.Pos, Name: name}), nil
		case "fork":
			return nil, p.errorf("fork/join is not supported")
		}
	}
	return nil, p.errorf("unexpected %s at start of statement", t)
}

// parseAssignLike parses `lvalue (=|<=) [#d] expr ;`.
func (p *Parser) parseAssignLike() (Stmt, error) {
	pos := p.cur().Pos
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	blocking := true
	switch p.kind() {
	case EQ:
		p.advance()
	case LE:
		blocking = false
		p.advance()
	default:
		return nil, p.errorf("expected = or <= after lvalue, found %s", p.cur())
	}
	var delay Expr
	if p.accept(HASH) {
		d, err := p.parseDelayValue()
		if err != nil {
			return nil, err
		}
		delay = d
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return keep(p, &p.nodes.AssignStmt, AssignStmt{Pos: pos, LHS: lhs, RHS: rhs, Blocking: blocking, Delay: delay}), nil
}

func (p *Parser) parseBlock() (Stmt, error) {
	pos := p.cur().Pos
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	b := keep(p, &p.nodes.Block, Block{Pos: pos})
	if p.accept(COLON) {
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		b.Name = name
	}
	// Local declarations first.
	for p.isKw("reg") || p.isKw("integer") {
		if err := p.parseLocalDecls(&b.Decls); err != nil {
			return nil, err
		}
	}
	for !p.acceptKw("end") {
		if p.atEOF() {
			return nil, p.errorf("unexpected EOF inside begin/end block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = add(p, b.Stmts, s)
	}
	return b, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.cur().Pos
	if err := p.expectKw("if"); err != nil {
		return nil, err
	}
	if err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	thenStmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := keep(p, &p.nodes.IfStmt, IfStmt{Pos: pos, Cond: cond, Then: thenStmt})
	if p.acceptKw("else") {
		elseStmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = elseStmt
	}
	return st, nil
}

func (p *Parser) parseCase() (Stmt, error) {
	pos := p.cur().Pos
	kind := CaseExact
	switch p.next().Text {
	case "casez":
		kind = CaseZ
	case "casex":
		kind = CaseX
	}
	if err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	cs := keep(p, &p.nodes.CaseStmt, CaseStmt{Pos: pos, Kind: kind, Expr: sel})
	for !p.acceptKw("endcase") {
		if p.atEOF() {
			return nil, p.errorf("unexpected EOF inside case statement")
		}
		item := CaseItem{}
		if p.acceptKw("default") {
			p.accept(COLON)
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				item.Exprs = add(p, item.Exprs, e)
				if p.accept(COMMA) {
					continue
				}
				break
			}
			if err := p.expect(COLON); err != nil {
				return nil, err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		item.Body = body
		cs.Items = add(p, cs.Items, item)
	}
	return cs, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.cur().Pos
	if err := p.expectKw("for"); err != nil {
		return nil, err
	}
	if err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	init, err := p.parseForAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expect(SEMI); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(SEMI); err != nil {
		return nil, err
	}
	post, err := p.parseForAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return keep(p, &p.nodes.ForStmt, ForStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: body}), nil
}

// parseForAssign parses `lvalue = expr` without a trailing semicolon.
func (p *Parser) parseForAssign() (Stmt, error) {
	pos := p.cur().Pos
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	if err := p.expect(EQ); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return keep(p, &p.nodes.AssignStmt, AssignStmt{Pos: pos, LHS: lhs, RHS: rhs, Blocking: true}), nil
}

// parseLValue parses an assignment target: identifier with selects, a
// hierarchical name, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	t := p.cur()
	if t.Kind == LBRACE {
		p.advance()
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		c := keep(p, &p.nodes.Concat, Concat{Pos: t.Pos})
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = add(p, c.Parts, e)
			if p.accept(COMMA) {
				continue
			}
			break
		}
		if err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return c, nil
	}
	if t.Kind != IDENT {
		return nil, p.errorf("expected lvalue, found %s", t)
	}
	p.advance()
	return p.parseName(t)
}
