// Package plan implements logical operator trees (the paper's
// "expression trees") over the operators of package algebra: scans,
// inner/outer/full outer joins, selections, generalized selections,
// generalized projections and MGOJ.
//
// Plans are immutable: rewrites build new trees sharing unchanged
// subtrees. Every node can be evaluated directly against a Database,
// which is the reference semantics used to verify that rewritten
// plans are equivalent to the original query.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
)

// Database binds base relation names to extensions.
type Database map[string]*relation.Relation

// Node is a logical plan operator.
type Node interface {
	// Children returns the node's inputs in order.
	Children() []Node
	// WithChildren returns a copy of the node with the given inputs;
	// len(ch) must match len(Children()).
	WithChildren(ch []Node) Node
	// Schema derives the output schema from the database's base
	// schemas without evaluating.
	Schema(db Database) (*schema.Schema, error)
	// Eval computes the node's result relation.
	Eval(db Database) (*relation.Relation, error)
	// String renders the plan canonically; equal strings mean equal
	// plans, which the saturation engine relies on for memoization.
	// Nodes of this package cache the rendering (see Key and
	// Fingerprint), so repeated calls cost a pointer load.
	String() string
}

// JoinKind enumerates the binary operators of the paper.
type JoinKind uint8

// The join kinds.
const (
	InnerJoin JoinKind = iota // ⋈
	LeftJoin                  // →
	RightJoin                 // ←
	FullJoin                  // ↔
)

// String renders the kind mnemonic used in plan strings.
func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "JOIN"
	case LeftJoin:
		return "LOJ"
	case RightJoin:
		return "ROJ"
	case FullJoin:
		return "FOJ"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

// Scan reads a base relation, optionally renaming it (footnote 5 of
// the paper: relations occurring more than once are renamed apart).
type Scan struct {
	Rel string
	// As, when non-empty, requalifies every attribute of the
	// relation (including its virtual row identifier) to this name.
	As string

	fpCache
}

// NewScan returns a scan of rel.
func NewScan(rel string) *Scan { return &Scan{Rel: rel} }

// NewScanAs returns a scan of rel renamed to alias.
func NewScanAs(rel, alias string) *Scan { return &Scan{Rel: rel, As: alias} }

// Name returns the name the scan's attributes are qualified with.
func (s *Scan) Name() string {
	if s.As != "" {
		return s.As
	}
	return s.Rel
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (s *Scan) WithChildren(ch []Node) Node {
	if len(ch) != 0 {
		panic("plan: Scan has no children")
	}
	return s
}

// Schema implements Node.
func (s *Scan) Schema(db Database) (*schema.Schema, error) {
	r, ok := db[s.Rel]
	if !ok {
		return nil, fmt.Errorf("plan: unknown relation %q", s.Rel)
	}
	if s.As == "" || s.As == s.Rel {
		return r.Schema(), nil
	}
	return s.renamed(r.Schema()), nil
}

// Eval implements Node.
func (s *Scan) Eval(db Database) (*relation.Relation, error) {
	r, ok := db[s.Rel]
	if !ok {
		return nil, fmt.Errorf("plan: unknown relation %q", s.Rel)
	}
	if s.As == "" || s.As == s.Rel {
		return r, nil
	}
	cols, n := r.Columns()
	return relation.FromColumns(s.renamed(r.Schema()), cols, n), nil
}

func renameSchema(s *schema.Schema, old, new string) *schema.Schema {
	attrs := s.Attrs()
	for i := range attrs {
		if attrs[i].Rel == old {
			attrs[i].Rel = new
		}
	}
	return schema.New(attrs...)
}

func (s *Scan) fingerprint() *fpVal {
	return s.fpCache.val(func() string {
		if s.As == "" || s.As == s.Rel {
			return s.Rel
		}
		return s.Rel + ":" + s.As
	})
}

// String implements Node.
func (s *Scan) String() string { return s.fingerprint().key }

// Join is a binary operator r_l ⊙_p r_r of the given kind.
type Join struct {
	Kind JoinKind
	Pred expr.Pred
	L, R Node

	fpCache
}

// NewJoin builds a join node.
func NewJoin(kind JoinKind, p expr.Pred, l, r Node) *Join {
	return &Join{Kind: kind, Pred: p, L: l, R: r}
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// WithChildren implements Node.
func (j *Join) WithChildren(ch []Node) Node {
	if len(ch) != 2 {
		panic("plan: Join needs two children")
	}
	return &Join{Kind: j.Kind, Pred: j.Pred, L: ch[0], R: ch[1]}
}

// Schema implements Node.
func (j *Join) Schema(db Database) (*schema.Schema, error) {
	ls, err := j.L.Schema(db)
	if err != nil {
		return nil, err
	}
	rs, err := j.R.Schema(db)
	if err != nil {
		return nil, err
	}
	return ls.Concat(rs), nil
}

// Eval implements Node.
func (j *Join) Eval(db Database) (*relation.Relation, error) {
	l, err := j.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := j.R.Eval(db)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case InnerJoin:
		return algebra.Join(j.Pred, l, r), nil
	case LeftJoin:
		return algebra.LeftOuter(j.Pred, l, r), nil
	case RightJoin:
		return algebra.RightOuter(j.Pred, l, r), nil
	case FullJoin:
		return algebra.FullOuter(j.Pred, l, r), nil
	}
	return nil, fmt.Errorf("plan: unknown join kind %v", j.Kind)
}

func (j *Join) fingerprint() *fpVal {
	return j.fpCache.val(func() string {
		// Built by concatenation, not fmt: this runs once per candidate
		// plan the enumerator generates and fmt's reflection dominated
		// its profile.
		return "(" + Key(j.L) + " " + j.Kind.String() + "[" + j.Pred.String() + "] " + Key(j.R) + ")"
	})
}

// String implements Node.
func (j *Join) String() string { return j.fingerprint().key }

// Select is the conventional selection σ_p.
type Select struct {
	Pred  expr.Pred
	Input Node

	fpCache
}

// NewSelect builds a selection node.
func NewSelect(p expr.Pred, in Node) *Select { return &Select{Pred: p, Input: in} }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Select) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: Select needs one child")
	}
	return &Select{Pred: s.Pred, Input: ch[0]}
}

// Schema implements Node.
func (s *Select) Schema(db Database) (*schema.Schema, error) { return s.Input.Schema(db) }

// Eval implements Node.
func (s *Select) Eval(db Database) (*relation.Relation, error) {
	in, err := s.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return algebra.Select(s.Pred, in), nil
}

func (s *Select) fingerprint() *fpVal {
	return s.fpCache.val(func() string {
		return "SEL[" + s.Pred.String() + "](" + Key(s.Input) + ")"
	})
}

// String implements Node.
func (s *Select) String() string { return s.fingerprint().key }

// PreservedSpec names the base relations spanned by one preserved
// relation of a generalized selection (the "r1r2" of σ*_p[r1r2]).
type PreservedSpec []string

// NewPreserved builds a sorted spec.
func NewPreserved(rels ...string) PreservedSpec {
	s := append(PreservedSpec(nil), rels...)
	sort.Strings(s)
	return s
}

// set converts the spec to a set.
func (p PreservedSpec) set() map[string]bool {
	set := make(map[string]bool, len(p))
	for _, r := range p {
		set[r] = true
	}
	return set
}

// specSets is the specs as the relation-name sets the algebra takes.
func specSets(ps []PreservedSpec) []map[string]bool {
	sets := make([]map[string]bool, len(ps))
	for i, s := range ps {
		sets[i] = s.set()
	}
	return sets
}

// String renders e.g. "r1r2".
func (p PreservedSpec) String() string { return strings.Join(p, "") }

// GenSel is the generalized selection σ*_p[specs](input)
// (Definition 2.1).
type GenSel struct {
	Pred      expr.Pred
	Preserved []PreservedSpec
	Input     Node

	fpCache
}

// NewGenSel builds a generalized selection node with canonically
// ordered preserved specs.
func NewGenSel(p expr.Pred, preserved []PreservedSpec, in Node) *GenSel {
	specs := append([]PreservedSpec(nil), preserved...)
	sort.Slice(specs, func(i, j int) bool { return specs[i].String() < specs[j].String() })
	return &GenSel{Pred: p, Preserved: specs, Input: in}
}

// Children implements Node.
func (g *GenSel) Children() []Node { return []Node{g.Input} }

// WithChildren implements Node.
func (g *GenSel) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: GenSel needs one child")
	}
	return &GenSel{Pred: g.Pred, Preserved: g.Preserved, Input: ch[0]}
}

// Schema implements Node.
func (g *GenSel) Schema(db Database) (*schema.Schema, error) { return g.Input.Schema(db) }

// Eval implements Node.
func (g *GenSel) Eval(db Database) (*relation.Relation, error) {
	in, err := g.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return algebra.GenSelect(g.Pred, specSets(g.Preserved), in)
}

func (g *GenSel) fingerprint() *fpVal {
	return g.fpCache.val(func() string {
		return "GS[" + g.Pred.String() + "; " + specsKey(g.Preserved) + "](" + Key(g.Input) + ")"
	})
}

// String implements Node.
func (g *GenSel) String() string { return g.fingerprint().key }

// MGOJNode is the modified generalized outer join
// MGOJ_p[specs](l, r) of [BHAR95a].
type MGOJNode struct {
	Pred      expr.Pred
	Preserved []PreservedSpec
	L, R      Node

	fpCache
}

// NewMGOJ builds an MGOJ node.
func NewMGOJ(p expr.Pred, preserved []PreservedSpec, l, r Node) *MGOJNode {
	specs := append([]PreservedSpec(nil), preserved...)
	sort.Slice(specs, func(i, j int) bool { return specs[i].String() < specs[j].String() })
	return &MGOJNode{Pred: p, Preserved: specs, L: l, R: r}
}

// Children implements Node.
func (m *MGOJNode) Children() []Node { return []Node{m.L, m.R} }

// WithChildren implements Node.
func (m *MGOJNode) WithChildren(ch []Node) Node {
	if len(ch) != 2 {
		panic("plan: MGOJ needs two children")
	}
	return &MGOJNode{Pred: m.Pred, Preserved: m.Preserved, L: ch[0], R: ch[1]}
}

// Schema implements Node.
func (m *MGOJNode) Schema(db Database) (*schema.Schema, error) {
	ls, err := m.L.Schema(db)
	if err != nil {
		return nil, err
	}
	rs, err := m.R.Schema(db)
	if err != nil {
		return nil, err
	}
	return ls.Concat(rs), nil
}

// Eval implements Node.
func (m *MGOJNode) Eval(db Database) (*relation.Relation, error) {
	l, err := m.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := m.R.Eval(db)
	if err != nil {
		return nil, err
	}
	return algebra.MGOJ(m.Pred, specSets(m.Preserved), l, r)
}

func (m *MGOJNode) fingerprint() *fpVal {
	return m.fpCache.val(func() string {
		return "(" + Key(m.L) + " MGOJ[" + m.Pred.String() + "; " + specsKey(m.Preserved) + "] " + Key(m.R) + ")"
	})
}

// String implements Node.
func (m *MGOJNode) String() string { return m.fingerprint().key }

// GroupBy is the generalized projection π_{X,f(Y)}(input).
type GroupBy struct {
	Keys  []schema.Attribute
	Aggs  []algebra.Aggregate
	Input Node

	fpCache
}

// NewGroupBy builds a generalized projection node.
func NewGroupBy(keys []schema.Attribute, aggs []algebra.Aggregate, in Node) *GroupBy {
	return &GroupBy{Keys: keys, Aggs: aggs, Input: in}
}

// Children implements Node.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

// WithChildren implements Node.
func (g *GroupBy) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: GroupBy needs one child")
	}
	return &GroupBy{Keys: g.Keys, Aggs: g.Aggs, Input: ch[0]}
}

// Schema implements Node.
func (g *GroupBy) Schema(db Database) (*schema.Schema, error) {
	if _, err := g.Input.Schema(db); err != nil {
		return nil, err
	}
	attrs := append([]schema.Attribute(nil), g.Keys...)
	for _, a := range g.Aggs {
		attrs = append(attrs, a.Out)
	}
	return schema.New(attrs...), nil
}

// Eval implements Node.
func (g *GroupBy) Eval(db Database) (*relation.Relation, error) {
	in, err := g.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return algebra.GroupProject(g.Keys, g.Aggs, in), nil
}

func (g *GroupBy) fingerprint() *fpVal {
	return g.fpCache.val(func() string {
		keys := make([]string, len(g.Keys))
		for i, k := range g.Keys {
			keys[i] = k.String()
		}
		aggs := make([]string, len(g.Aggs))
		for i, a := range g.Aggs {
			aggs[i] = a.String()
		}
		return "GP[" + strings.Join(keys, ",") + "; " + strings.Join(aggs, ",") + "](" + Key(g.Input) + ")"
	})
}

// String implements Node.
func (g *GroupBy) String() string { return g.fingerprint().key }

// Project is π over the listed attributes, optionally distinct.
type Project struct {
	Attrs    []schema.Attribute
	Distinct bool
	Input    Node

	fpCache
}

// NewProject builds a projection node.
func NewProject(attrs []schema.Attribute, distinct bool, in Node) *Project {
	return &Project{Attrs: attrs, Distinct: distinct, Input: in}
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// WithChildren implements Node.
func (p *Project) WithChildren(ch []Node) Node {
	if len(ch) != 1 {
		panic("plan: Project needs one child")
	}
	return &Project{Attrs: p.Attrs, Distinct: p.Distinct, Input: ch[0]}
}

// Schema implements Node.
func (p *Project) Schema(db Database) (*schema.Schema, error) {
	if _, err := p.Input.Schema(db); err != nil {
		return nil, err
	}
	return schema.New(p.Attrs...), nil
}

// Eval implements Node.
func (p *Project) Eval(db Database) (*relation.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	return in.Project(p.Attrs, p.Distinct), nil
}

func (p *Project) fingerprint() *fpVal {
	return p.fpCache.val(func() string {
		attrs := make([]string, len(p.Attrs))
		for i, a := range p.Attrs {
			attrs[i] = a.String()
		}
		d := ""
		if p.Distinct {
			d = " distinct"
		}
		return fmt.Sprintf("PROJ[%s%s](%s)", strings.Join(attrs, ","), d, Key(p.Input))
	})
}

// String implements Node.
func (p *Project) String() string { return p.fingerprint().key }
