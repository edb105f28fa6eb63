package plan

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/schema"
)

// Validate checks the structural invariants every well-formed plan
// over db must satisfy, without evaluating it:
//
//   - schema derivation succeeds at every node, so column positions
//     are consistent bottom-up;
//   - every attribute a predicate, projection, grouping, aggregate or
//     sort key references is present in the node's input schema
//     (virtual #rid attributes are part of base schemas and resolve
//     like any other column);
//   - the preserved specifications of generalized selections and
//     MGOJ nodes name only base relations available beneath the node
//     — the preserved-list ⊆ inputs side condition of the paper's
//     reordering theorems — and each resolves to at least one
//     attribute;
//   - only node types of this package appear (a foreign Node — e.g. a
//     memo binding that leaked out of extraction — is rejected).
//
// The optimizer's property suites run Validate on every winner, and
// the degradation paths run it on budget-tripped best-effort plans
// before returning them: a plan that optimizes "successfully" but
// violates these invariants is a bug worth failing loudly on.
func Validate(n Node, db Database) error {
	_, err := validate(n, db)
	return err
}

func validate(n Node, db Database) (*schema.Schema, error) {
	switch m := n.(type) {
	case *Scan:
		return m.Schema(db)
	case *Join:
		ls, err := validate(m.L, db)
		if err != nil {
			return nil, err
		}
		rs, err := validate(m.R, db)
		if err != nil {
			return nil, err
		}
		if !ls.Disjoint(rs) {
			return nil, fmt.Errorf("plan: join inputs share attributes in %s", m)
		}
		out := ls.Concat(rs)
		if err := predIn(m.Pred, out, m); err != nil {
			return nil, err
		}
		return out, nil
	case *Select:
		in, err := validate(m.Input, db)
		if err != nil {
			return nil, err
		}
		if err := predIn(m.Pred, in, m); err != nil {
			return nil, err
		}
		return in, nil
	case *GenSel:
		in, err := validate(m.Input, db)
		if err != nil {
			return nil, err
		}
		if err := predIn(m.Pred, in, m); err != nil {
			return nil, err
		}
		if err := specsIn(m.Preserved, BaseRelSet(m.Input), in, m); err != nil {
			return nil, err
		}
		return in, nil
	case *MGOJNode:
		ls, err := validate(m.L, db)
		if err != nil {
			return nil, err
		}
		rs, err := validate(m.R, db)
		if err != nil {
			return nil, err
		}
		if !ls.Disjoint(rs) {
			return nil, fmt.Errorf("plan: MGOJ inputs share attributes in %s", m)
		}
		out := ls.Concat(rs)
		if err := predIn(m.Pred, out, m); err != nil {
			return nil, err
		}
		rels := BaseRelSet(m.L)
		for r := range BaseRelSet(m.R) {
			rels[r] = true
		}
		if err := specsIn(m.Preserved, rels, out, m); err != nil {
			return nil, err
		}
		return out, nil
	case *GroupBy:
		in, err := validate(m.Input, db)
		if err != nil {
			return nil, err
		}
		for _, k := range m.Keys {
			if !in.Contains(k) {
				return nil, fmt.Errorf("plan: group key %s not in input of %s", k, m)
			}
		}
		attrs := append([]schema.Attribute(nil), m.Keys...)
		for _, a := range m.Aggs {
			if a.Arg != nil { // COUNT(*) has no argument
				for _, ref := range a.Arg.Attrs(nil) {
					if !in.Contains(ref) {
						return nil, fmt.Errorf("plan: aggregate input %s not in input of %s", ref, m)
					}
				}
			}
			attrs = append(attrs, a.Out)
		}
		return schema.New(attrs...), nil
	case *Project:
		in, err := validate(m.Input, db)
		if err != nil {
			return nil, err
		}
		for _, a := range m.Attrs {
			if !in.Contains(a) {
				return nil, fmt.Errorf("plan: projected attribute %s not in input of %s", a, m)
			}
		}
		return schema.New(m.Attrs...), nil
	case *Sort:
		in, err := validate(m.Input, db)
		if err != nil {
			return nil, err
		}
		for _, k := range m.Keys {
			if !in.Contains(k.Attr) {
				return nil, fmt.Errorf("plan: sort key %s not in input of %s", k.Attr, m)
			}
		}
		return in, nil
	default:
		return nil, fmt.Errorf("plan: Validate: unknown node type %T", n)
	}
}

// predIn checks every attribute p references against s. A nil
// predicate (cross join) references nothing.
func predIn(p expr.Pred, s *schema.Schema, at Node) error {
	if p == nil {
		return nil
	}
	for _, a := range p.Attrs(nil) {
		if !s.Contains(a) {
			return fmt.Errorf("plan: predicate attribute %s not in input of %s", a, at)
		}
	}
	return nil
}

// specsIn checks that every preserved spec names only base relations
// under the node and resolves to at least one attribute of s.
func specsIn(specs []PreservedSpec, rels map[string]bool, s *schema.Schema, at Node) error {
	for _, spec := range specs {
		for _, r := range spec {
			if !rels[r] {
				return fmt.Errorf("plan: preserved relation %q not an input of %s", r, at)
			}
		}
		if len(s.AttrsOfRels(spec.Set())) == 0 {
			return fmt.Errorf("plan: preserved spec %s resolves to no attributes in %s", spec, at)
		}
	}
	return nil
}
