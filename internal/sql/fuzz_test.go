package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/value"
)

// FuzzParse ensures the lexer and parser never panic on arbitrary
// input — they must fail with errors — and that for every input that
// does parse, parameterization commutes with lowering: extracting the
// literals into slots, lowering the template, and rebinding the values
// at the plan level must reproduce the exact tree direct lowering
// builds. This is the property the serving layer's plan cache rests
// on: a cached template plan plus bound parameters is indistinguishable
// from a freshly planned query.
//
// It also checks the token shape the serving layer memoizes templates
// by (checkShape).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"select a from t",
		"select a, b from t where a = 1 and b < 'x'",
		"select * from (select a from t) as v left outer join s on v.a = s.a",
		"select supkey, count(*) as c from d group by supkey having count(*) > 2",
		"select a from t where b = (select count(*) from s where s.a = t.a)",
		"select -- comment\n a from t",
		"select a from t where a >= 1.5e2",
		"select '' from t",
		"(((((",
		"select",
		// Parameterization-relevant shapes: literals in projections,
		// join conditions, HAVING, subqueries, and arithmetic.
		"select a + 1 from t where b = 2",
		"select t.a from t, s where t.a = s.a and t.b = 10 and s.c = 20",
		"select v.a from (select a from t where b > 5) as v where v.a <> 0",
		"select a, count(*) as n from t where b >= 1 group by a having count(*) > 1",
		"select t.a from t where t.b = (select count(*) from s where s.a = t.a) and t.a < 5",
		"select distinct a from t where a = '$1' order by a limit 3",
		// Token-shape seeds: duplicated and desugared operands, LIMIT,
		// literal kinds and conversions, comments, identifier case.
		"select a from t where b between 2 and 9",
		"select a from t where 5 between a and b",
		"select a from t where b in (1, 2.5, 'x')",
		"select a from t where 3 in (a, b)",
		"select a from t order by a limit 10",
		"select a from t where b = 1 limit 7",
		"select a from t where b > 0.25 and c = 1.",
		"select a from t where b = 'it''s'",
		"select a from t where b = 99999999999999999999",
		"select a from t where b = 9223372036854775807",
		"select a from t where b = 1.2.3",
		"select a -- 1\n from t where b = 2 -- 'x'",
		"SELECT T.A FROM T WHERE T.B = 4 AND t.b < 'Q'",
	} {
		f.Add(seed)
	}
	db := testDB()
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil || stmt == nil {
			return
		}
		_ = stmt.String() // rendering must not panic

		tmpl, params := Parameterize(stmt)
		_ = tmpl.String()
		checkShape(t, input, tmpl, params)
		if rebound := bindLiterals(tmpl, params); rebound.String() != stmt.String() {
			t.Fatalf("bindLiterals(Parameterize(x)) != x:\n  got  %s\n  want %s",
				rebound, stmt)
		}

		// Lowering either fails the same way for statement and template
		// (structure, not literal values, decides lowerability), or
		// succeeds for both with identical trees after rebinding.
		direct, derr := Lower(stmt, db)
		lowered, terr := Lower(tmpl, db)
		if (derr == nil) != (terr == nil) {
			t.Fatalf("lowerability diverged: direct err=%v, template err=%v for %q", derr, terr, input)
		}
		if derr != nil {
			return
		}
		bound, err := plan.BindParams(lowered, params)
		if err != nil {
			t.Fatalf("bind after lowering %q: %v", input, err)
		}
		if plan.Key(bound) != plan.Key(direct) {
			t.Fatalf("parameterize→lower→bind differs from direct lowering for %q:\n  bound  %s\n  direct %s",
				input, plan.Key(bound), plan.Key(direct))
		}
	})
}

// checkShape asserts the token-shape invariant for an input that
// parsed to template tmpl with parameters params: the slot map reads
// the parameters back off the tokens, and replacing every masked
// literal with another literal of its kind keeps the shape, the
// template and the slot map, while the slot map reads the new literals.
func checkShape(t *testing.T, input string, tmpl *SelectStmt, params []value.Value) {
	t.Helper()
	toks, err := Lex(input)
	if err != nil {
		t.Fatalf("Lex fails on parsed input %q: %v", input, err)
	}
	stmt, err := toks.Parse()
	if err != nil {
		t.Fatalf("Tokens.Parse fails on parsed input %q: %v", input, err)
	}
	_, _, slots := ParameterizeSlots(stmt)
	if slots == nil {
		t.Fatalf("no slot map for parsed input %q", input)
	}
	got, err := toks.Params(slots)
	if err != nil {
		t.Fatalf("slot map of %q does not read: %v", input, err)
	}
	if !sameValues(got, params) {
		t.Fatalf("slot map of %q reads %v, Parameterize extracted %v", input, got, params)
	}

	// Swap every literal the shape masks for another of its kind. The
	// shape holds one space-separated field per token.
	shape := string(toks.AppendShape(nil))
	fields := strings.Split(shape, " ")
	if len(fields) != len(toks.toks)-1 { // EOF has no field
		t.Fatalf("shape %q of %q has %d fields for %d tokens", shape, input, len(fields), len(toks.toks)-1)
	}
	var b strings.Builder
	last := 0
	for i, tok := range toks.toks {
		if i == len(fields) || fields[i] != "?" && fields[i] != "'" {
			continue
		}
		var with string
		switch tok.kind {
		case tokNumber:
			with = "7"
			if tok.text == with {
				with = "42.5"
			}
		case tokString:
			with = "'zz'"
			if tok.text == "zz" {
				with = "'q'"
			}
		default:
			t.Fatalf("shape %q of %q masks %s, not a literal", shape, input, tok)
		}
		end := tok.pos + len(tok.text)
		if tok.kind == tokString {
			end += 2 // the quotes
		}
		b.WriteString(input[last:tok.pos])
		b.WriteString(with)
		last = end
	}
	b.WriteString(input[last:])
	swapped := b.String()
	stoks, err := Lex(swapped)
	if err != nil {
		t.Fatalf("literal swap %q of %q does not lex: %v", swapped, input, err)
	}
	if z := string(stoks.AppendShape(nil)); z != shape {
		t.Fatalf("literal swap changed the shape:\n  %q → %s\n  %q → %s", input, shape, swapped, z)
	}
	sstmt, err := stoks.Parse()
	if err != nil {
		t.Fatalf("literal swap %q of %q does not parse: %v", swapped, input, err)
	}
	stmpl, sparams, sslots := ParameterizeSlots(sstmt)
	if stmpl.String() != tmpl.String() {
		t.Fatalf("literal swap changed the template:\n  %q → %s\n  %q → %s", input, tmpl, swapped, stmpl)
	}
	if fmt.Sprint(sslots) != fmt.Sprint(slots) {
		t.Fatalf("literal swap changed the slot map: %v → %v", slots, sslots)
	}
	if got, err := stoks.Params(slots); err != nil || !sameValues(got, sparams) {
		t.Fatalf("slot map of %q reads %v (%v) off %q, want %v", input, got, err, swapped, sparams)
	}
}

// sameValues reports whether two parameter vectors hold the same kinds
// and renderings.
func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || a[i].GoString() != b[i].GoString() {
			return false
		}
	}
	return true
}
