package expr

import (
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// disj is the disjunction p1 ∨ … ∨ pn under three-valued logic. The
// paper's binary operators take conjunctive predicates only; a
// disjunction therefore behaves as a single atomic conjunct — it is
// never broken up by the association identities, but it is perfectly
// legal inside selections and as one conjunct of a join predicate.
type disj struct{ Preds []Pred }

// Eval implements Pred.
func (d disj) Eval(env Env) value.Tristate {
	out := value.False
	for _, p := range d.Preds {
		out = out.Or(p.Eval(env))
		if out == value.True {
			return value.True
		}
	}
	return out
}

// Attrs implements Pred.
func (d disj) Attrs(dst []schema.Attribute) []schema.Attribute {
	for _, p := range d.Preds {
		dst = p.Attrs(dst)
	}
	return dst
}

// String implements Pred.
func (d disj) String() string {
	parts := make([]string, len(d.Preds))
	for i, p := range d.Preds {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " or ") + ")"
}

// Or builds a disjunction, flattening nested ones. An empty Or is
// false-ish (never holds); a singleton unwraps.
func Or(preds ...Pred) Pred {
	var flat []Pred
	var walk func(p Pred)
	walk = func(p Pred) {
		switch q := p.(type) {
		case nil:
		case disj:
			for _, sub := range q.Preds {
				walk(sub)
			}
		default:
			flat = append(flat, p)
		}
	}
	for _, p := range preds {
		walk(p)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return disj{Preds: flat}
}

// Not is three-valued negation; NOT over Unknown stays Unknown, so
// NULLs still never satisfy a filter.
type Not struct{ P Pred }

// Eval implements Pred.
func (n Not) Eval(env Env) value.Tristate { return n.P.Eval(env).Not() }

// Attrs implements Pred.
func (n Not) Attrs(dst []schema.Attribute) []schema.Attribute { return n.P.Attrs(dst) }

// String implements Pred.
func (n Not) String() string { return "not (" + n.P.String() + ")" }
