// Package schema models relation schemas as used in Section 1.2 of
// the paper: a relation r = <R, V, E> has a set R of real attributes
// (column names), a set V of virtual attributes (row identifiers),
// and an extension E. This package implements R and V; extensions
// live in package relation.
//
// Attributes are qualified by the (renamed-unique) relation they
// originate from, e.g. r1.b, so schemas of different relations are
// disjoint as the paper requires (R1 ∩ R2 = ∅). The virtual attribute
// of base relation r1 is written r1.#rid; attributes generated by an
// aggregation are qualified by the generalized projection that
// produced them.
package schema

import (
	"fmt"
	"strings"
)

// Attribute identifies one column of a relation. Rel is the
// qualifying relation name, Col the column name. Virtual marks row
// identifier columns (the V of <R, V, E>); they participate in
// projection/difference for generalized selection but are never
// referenced by user predicates.
type Attribute struct {
	Rel     string
	Col     string
	Virtual bool
}

// String renders the attribute as rel.col (virtual columns render
// their # prefix through the column name, e.g. r1.#rid).
func (a Attribute) String() string { return a.Rel + "." + a.Col }

// RID returns the virtual row-identifier attribute for relation rel.
func RID(rel string) Attribute { return Attribute{Rel: rel, Col: "#rid", Virtual: true} }

// Attr is shorthand for a real attribute rel.col.
func Attr(rel, col string) Attribute { return Attribute{Rel: rel, Col: col} }

// Schema is an ordered list of attributes with fast lookup. The order
// matters for tuple layout; set operations (Union, Minus) are defined
// on the attribute sets.
type Schema struct {
	attrs []Attribute
	index map[Attribute]int
}

// New builds a schema from the given attributes. It panics on
// duplicates, which always indicate a missed rename (footnote 5 of
// the paper assumes relations are renamed apart).
func New(attrs ...Attribute) *Schema {
	s := &Schema{
		attrs: append([]Attribute(nil), attrs...),
		index: make(map[Attribute]int, len(attrs)),
	}
	for i, a := range s.attrs {
		if _, dup := s.index[a]; dup {
			panic(fmt.Sprintf("schema: duplicate attribute %s", a))
		}
		s.index[a] = i
	}
	return s
}

// Base builds the schema of a base relation rel with the given real
// column names plus its virtual row-identifier attribute.
func Base(rel string, cols ...string) *Schema {
	attrs := make([]Attribute, 0, len(cols)+1)
	for _, c := range cols {
		attrs = append(attrs, Attr(rel, c))
	}
	attrs = append(attrs, RID(rel))
	return New(attrs...)
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// At returns the i-th attribute.
func (s *Schema) At(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// IndexOf returns the position of attribute a, or -1 if absent.
func (s *Schema) IndexOf(a Attribute) int {
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Contains reports whether attribute a is in the schema.
func (s *Schema) Contains(a Attribute) bool {
	_, ok := s.index[a]
	return ok
}

// ContainsAll reports whether every attribute of other is in s.
func (s *Schema) ContainsAll(other *Schema) bool {
	for _, a := range other.attrs {
		if !s.Contains(a) {
			return false
		}
	}
	return true
}

// Disjoint reports whether s and other share no attribute.
func (s *Schema) Disjoint(other *Schema) bool {
	small, big := s, other
	if big.Len() < small.Len() {
		small, big = big, small
	}
	for _, a := range small.attrs {
		if big.Contains(a) {
			return false
		}
	}
	return true
}

// Concat returns the schema R1R2 of a binary operator result: s's
// attributes followed by other's. It panics if the schemas overlap.
func (s *Schema) Concat(other *Schema) *Schema {
	attrs := make([]Attribute, 0, len(s.attrs)+len(other.attrs))
	attrs = append(attrs, s.attrs...)
	attrs = append(attrs, other.attrs...)
	return New(attrs...)
}

// AttrsOfRels returns, in schema order, all attributes (real and
// virtual) whose qualifying relation is in rels.
func (s *Schema) AttrsOfRels(rels map[string]bool) []Attribute {
	var out []Attribute
	for _, a := range s.attrs {
		if rels[a.Rel] {
			out = append(out, a)
		}
	}
	return out
}

// String renders the schema as (a, b, …).
func (s *Schema) String() string {
	parts := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
