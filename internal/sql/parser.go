package sql

import (
	"fmt"
	"strconv"
)

// Parse parses one SELECT statement.
func Parse(input string) (*SelectStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	return toks.Parse()
}

// Parse parses the tokens as one SELECT statement; Parse(input) is
// Lex(input) followed by this.
func (t Tokens) Parse() (*SelectStmt, error) {
	p := &parser{toks: t.toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %s", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// at reports whether the current token matches; text "" matches any
// token of the kind.
func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(words ...string) bool {
	t := p.peek()
	if t.kind != tokIdent {
		return false
	}
	for _, w := range words {
		if t.text == w {
			return true
		}
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.atKeyword(word) {
		return fmt.Errorf("sql: expected %q, got %s", word, p.peek())
	}
	p.next()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.at(tokSymbol, sym) {
		return fmt.Errorf("sql: expected %q, got %s", sym, p.peek())
	}
	p.next()
	return nil
}

var reservedAfterItem = map[string]bool{
	"from": true, "where": true, "group": true, "having": true,
	"on": true, "join": true, "left": true, "right": true, "full": true,
	"inner": true, "outer": true, "and": true, "as": true, "order": true,
	"or": true, "not": true, "limit": true, "between": true, "in": true,
	"desc": true, "asc": true,
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	if p.atKeyword("distinct") {
		p.next()
		stmt.Distinct = true
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.at(tokSymbol, ",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(stmt); err != nil {
		return nil, err
	}
	if p.atKeyword("where") {
		p.next()
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.atKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if p.at(tokSymbol, ",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("having") {
		p.next()
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.atKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.atKeyword("desc") {
				p.next()
				item.Desc = true
			} else if p.atKeyword("asc") {
				p.next()
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.at(tokSymbol, ",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("limit") {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected a number after LIMIT, got %s", t)
		}
		n, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		stmt.Limit = int(n)
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.at(tokSymbol, "*") {
		p.next()
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.atKeyword("as") {
		p.next()
		t := p.next()
		if t.kind != tokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS, got %s", t)
		}
		item.As = t.text
	} else if p.at(tokIdent, "") && !reservedAfterItem[p.peek().text] {
		item.As = p.next().text
	}
	return item, nil
}

func (p *parser) parseFrom(stmt *SelectStmt) error {
	first, err := p.parseFromItem()
	if err != nil {
		return err
	}
	stmt.From = append(stmt.From, first)
	for {
		switch {
		case p.at(tokSymbol, ","):
			p.next()
			item, err := p.parseFromItem()
			if err != nil {
				return err
			}
			stmt.From = append(stmt.From, item)
		case p.atKeyword("join", "inner", "left", "right", "full", "leftouterjoin", "rightouterjoin", "fullouterjoin"):
			kind := "join"
			switch p.peek().text {
			case "inner":
				p.next()
				if err := p.expectKeyword("join"); err != nil {
					return err
				}
			case "join":
				p.next()
			case "left", "right", "full":
				kind = p.peek().text
				p.next()
				if p.atKeyword("outer") {
					p.next()
				}
				if err := p.expectKeyword("join"); err != nil {
					return err
				}
			case "leftouterjoin":
				kind = "left"
				p.next()
			case "rightouterjoin":
				kind = "right"
				p.next()
			case "fullouterjoin":
				kind = "full"
				p.next()
			}
			item, err := p.parseFromItem()
			if err != nil {
				return err
			}
			if err := p.expectKeyword("on"); err != nil {
				return err
			}
			on, err := p.parseExpr()
			if err != nil {
				return err
			}
			item.Join = JoinSpec{Kind: kind, On: on}
			stmt.From = append(stmt.From, item)
		default:
			return nil
		}
	}
}

func (p *parser) parseFromItem() (FromItem, error) {
	var item FromItem
	if p.at(tokSymbol, "(") {
		p.next()
		sub, err := p.parseSelect()
		if err != nil {
			return item, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return item, err
		}
		item.Sub = sub
	} else {
		t := p.next()
		if t.kind != tokIdent {
			return item, fmt.Errorf("sql: expected table name, got %s", t)
		}
		item.Table = t.text
	}
	if p.atKeyword("as") {
		p.next()
		t := p.next()
		if t.kind != tokIdent {
			return item, fmt.Errorf("sql: expected alias after AS, got %s", t)
		}
		item.As = t.text
	} else if p.at(tokIdent, "") && !reservedAfterItem[p.peek().text] {
		item.As = p.next().text
	}
	if item.Sub != nil && item.As == "" {
		return item, fmt.Errorf("sql: derived table requires an alias")
	}
	return item, nil
}

// parseExpr parses boolean expressions with standard precedence:
// OR < AND < NOT < comparison.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = binExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("not") {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return unaryExpr{Op: "not", E: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if p.atKeyword("between") {
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return binExpr{Op: "and",
			L: binExpr{Op: ">=", L: l, R: lo},
			R: binExpr{Op: "<=", L: l, R: hi}}, nil
	}
	if p.atKeyword("in") {
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var alts Expr
		for {
			v, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			eq := binExpr{Op: "=", L: l, R: v}
			if alts == nil {
				alts = eq
			} else {
				alts = binExpr{Op: "or", L: alts, R: eq}
			}
			if p.at(tokSymbol, ",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return alts, nil
	}
	if p.at(tokSymbol, "") {
		switch p.peek().text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			op := p.next().text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return binExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "+") || p.at(tokSymbol, "-") {
		op := p.next().text
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = binExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tokSymbol, "*") || p.at(tokSymbol, "/") {
		op := p.next().text
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = binExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

var aggFuncs = map[string]bool{"count": true, "sum": true, "min": true, "max": true, "avg": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber || t.kind == tokString:
		at := p.i
		p.next()
		v, err := litValue(t)
		if err != nil {
			return nil, err
		}
		return lit{Val: v, Tok: at + 1}, nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		if p.atKeyword("select") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return subqueryExpr{Stmt: sub}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent && aggFuncs[t.text]:
		fn := p.next().text
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		call := aggCall{Func: fn}
		if p.at(tokSymbol, "*") {
			p.next()
			call.Star = true
		} else {
			if p.atKeyword("distinct") {
				p.next()
				call.Distinct = true
			}
			arg, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			call.Arg = arg
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	case t.kind == tokIdent:
		return p.parseColRef()
	default:
		return nil, fmt.Errorf("sql: unexpected token %s", t)
	}
}

func (p *parser) parseColRef() (ColRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return ColRef{}, fmt.Errorf("sql: expected column reference, got %s", t)
	}
	if p.at(tokSymbol, ".") {
		p.next()
		c := p.next()
		if c.kind != tokIdent {
			return ColRef{}, fmt.Errorf("sql: expected column after %q., got %s", t.text, c)
		}
		return ColRef{Qualifier: t.text, Column: c.text}, nil
	}
	return ColRef{Column: t.text}, nil
}
