package schema

import (
	"strings"
	"testing"
)

func TestBaseSchema(t *testing.T) {
	s := Base("r1", "a", "b")
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3 (a, b, rid)", s.Len())
	}
	if !s.Contains(Attr("r1", "a")) || !s.Contains(RID("r1")) {
		t.Error("missing attributes")
	}
	if s.Contains(Attr("r1", "z")) || s.Contains(Attr("r2", "a")) {
		t.Error("phantom attributes")
	}
	if got := s.At(2); !got.Virtual || got.Col != "#rid" {
		t.Errorf("rid attr = %v", got)
	}
	if s.IndexOf(Attr("r1", "b")) != 1 {
		t.Errorf("IndexOf b = %d", s.IndexOf(Attr("r1", "b")))
	}
	if s.IndexOf(Attr("r9", "b")) != -1 {
		t.Error("IndexOf of absent must be -1")
	}
}

func TestDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute must panic")
		}
	}()
	New(Attr("r", "a"), Attr("r", "a"))
}

func TestConcatDisjoint(t *testing.T) {
	a := Base("r1", "a")
	b := Base("r2", "a")
	if !a.Disjoint(b) {
		t.Error("r1/r2 schemas must be disjoint")
	}
	c := a.Concat(b)
	if c.Len() != 4 {
		t.Errorf("concat len = %d", c.Len())
	}
	if !c.ContainsAll(a) || !c.ContainsAll(b) {
		t.Error("concat must contain both inputs")
	}
	if a.Disjoint(a) {
		t.Error("a schema is not disjoint from itself")
	}
}

func TestConcatOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping concat must panic")
		}
	}()
	a := Base("r1", "a")
	a.Concat(a)
}

func TestRelsAndAttrsOfRels(t *testing.T) {
	s := Base("r1", "a").Concat(Base("r2", "b"))
	attrs := s.AttrsOfRels(map[string]bool{"r2": true})
	if len(attrs) != 2 { // b + rid
		t.Errorf("attrs of r2 = %v", attrs)
	}
	for _, a := range attrs {
		if a.Rel != "r2" {
			t.Errorf("wrong rel in %v", a)
		}
	}
}

func TestEqualAndString(t *testing.T) {
	a := Base("r1", "a", "b")
	b := Base("r1", "a", "b")
	if a.String() != b.String() {
		t.Error("identical schemas must render equal")
	}
	c := New(Attr("r1", "b"), Attr("r1", "a"))
	if a.String() == c.String() {
		t.Error("order matters for String")
	}
	if !strings.Contains(a.String(), "r1.a") {
		t.Errorf("String = %q", a.String())
	}
	if Attr("r1", "a").String() != "r1.a" {
		t.Error("attribute String wrong")
	}
}

func TestAttrsCopy(t *testing.T) {
	s := Base("r1", "a")
	attrs := s.Attrs()
	attrs[0].Col = "mutated"
	if s.At(0).Col == "mutated" {
		t.Error("Attrs must return a copy")
	}
}
