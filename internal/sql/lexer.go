// Package sql implements a front end for the SQL subset the paper's
// queries are written in: SELECT lists with aggregates and aliases,
// FROM clauses with base tables, derived tables and
// INNER/LEFT/RIGHT/FULL OUTER joins, WHERE with conjunctive
// comparisons and correlated COUNT subqueries, GROUP BY and HAVING.
//
// Lowering produces logical plans over the same operators the rest of
// the system reorders: views are merged (name resolution through
// derived tables rather than opaque boundaries), aggregated views
// become generalized projections, and correlated COUNT subqueries are
// unnested through core.JoinAggregateQuery into the outer-join +
// group-by + generalized-selection form of Section 1.1.
package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/value"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // identifiers lowercased; symbols verbatim
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits the input into tokens. SQL keywords are returned as
// identifiers; the parser matches them case-insensitively.
func lex(input string) ([]token, error) {
	// Queries run to about one token per two bytes of text (a
	// qualified column "r1.x" is three), so one allocation holds the
	// stream of an ordinary query.
	toks := make([]token, 0, len(input)/2+2)
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) && (isIdentChar(rune(input[i]))) {
				i++
			}
			toks = append(toks, token{tokIdent, strings.ToLower(input[start:i]), start})
		case unicode.IsDigit(c):
			start := i
			for i < len(input) && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < len(input) && input[i] != '\'' {
				i++
			}
			if i >= len(input) {
				return nil, fmt.Errorf("sql: unterminated string literal at %d", start)
			}
			toks = append(toks, token{tokString, input[start+1 : i], start})
			i++
		default:
			start := i
			// Two-character operators first.
			if i+1 < len(input) {
				two := input[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=":
					toks = append(toks, token{tokSymbol, two, start})
					i += 2
					continue
				}
			}
			switch c {
			case '=', '<', '>', '(', ')', ',', '.', '*', '+', '-', '/':
				toks = append(toks, token{tokSymbol, input[i : i+1], start})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentChar(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

// litValue converts a number or string token to the value of its
// literal: an integer when the text is one that fits in 64 bits, else a
// float. It is the parser's only conversion, so a literal read back
// from the tokens (Tokens.Params) is exactly the value Parse puts in
// the Lit.
func litValue(t token) (value.Value, error) {
	if t.kind == tokString {
		return value.NewString(t.text), nil
	}
	if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
		return value.NewInt(i), nil
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return value.Value{}, fmt.Errorf("sql: bad number %q", t.text)
	}
	return value.NewFloat(f), nil
}

// Tokens is one statement's lexed token stream. The serving layer lexes
// a request once: the stream's shape finds a memoized template, its
// literal tokens bind the template's slots, and only when the shape is
// new does Parse run on it.
type Tokens struct{ toks []token }

// Lex splits input into tokens. It fails exactly when Parse fails
// lexing, with the same error.
func Lex(input string) (Tokens, error) {
	toks, err := lex(input)
	return Tokens{toks}, err
}

// AppendShape appends the stream's literal-masked shape to dst: tokens
// separated by single spaces, every number token written as "?" and
// every string token as "'", except the number after the keyword LIMIT,
// which is plan structure and stays verbatim. Identifiers are already
// lowercased and symbols verbatim, and neither can contain a space, a
// "?" or a "'", so the encoding is unambiguous.
//
// Two statements with the same shape differ at most in the values of
// masked literals. The parser reads a literal's text only to convert it
// into a Lit, and parameterization replaces every Lit with a slot, so
// such statements that both parse have the same template (Parameterize)
// and their parameters are their literal tokens' values, read through
// the template's slot map (ParameterizeSlots, Tokens.Params).
func (t Tokens) AppendShape(dst []byte) []byte {
	for i, tok := range t.toks {
		if tok.kind == tokEOF {
			break
		}
		if i > 0 {
			dst = append(dst, ' ')
		}
		switch tok.kind {
		case tokNumber:
			if i > 0 && t.toks[i-1].kind == tokIdent && t.toks[i-1].text == "limit" {
				dst = append(dst, tok.text...)
			} else {
				dst = append(dst, '?')
			}
		case tokString:
			dst = append(dst, '\'')
		default:
			dst = append(dst, tok.text...)
		}
	}
	return dst
}

// Params converts the literal tokens a template's slot map names:
// params[i] is the value of token slots[i]. It fails when a named token
// is not a literal, which a slot map of a statement with the same shape
// never names, or does not convert (a number such as "1.2.3", which
// Parse would reject too).
func (t Tokens) Params(slots []int) ([]value.Value, error) {
	params := make([]value.Value, len(slots))
	for i, at := range slots {
		if at < 0 || at >= len(t.toks) || t.toks[at].kind != tokNumber && t.toks[at].kind != tokString {
			return nil, fmt.Errorf("sql: slot %d names token %d, not a literal", i+1, at)
		}
		v, err := litValue(t.toks[at])
		if err != nil {
			return nil, err
		}
		params[i] = v
	}
	return params, nil
}
