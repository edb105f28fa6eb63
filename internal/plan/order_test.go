package plan

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func ordKeys(attrs ...schema.Attribute) []SortKey {
	ks := make([]SortKey, len(attrs))
	for i, a := range attrs {
		ks[i] = SortKey{Attr: a}
	}
	return ks
}

func TestOrderSatisfiesAndKey(t *testing.T) {
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	ab := OrderBy(a, b)
	justA := OrderBy(a)
	descA := Order{{Attr: a, Desc: true}}
	cases := []struct {
		o, req Order
		want   bool
	}{
		{ab, nil, true},               // every stream satisfies empty
		{nil, nil, true},              // no order satisfies empty
		{ab, justA, true},             // prefix
		{justA, ab, false},            // requirement longer than delivery
		{ab, ab, true},                // exact
		{descA, justA, false},         // direction mismatch
		{justA, descA, false},         // direction mismatch, other way
		{OrderBy(b, a), justA, false}, // wrong leading attr
		{nil, justA, false},           // nothing delivered
	}
	for i, c := range cases {
		if got := c.o.Satisfies(c.req); got != c.want {
			t.Errorf("case %d: %s.Satisfies(%s) = %v, want %v", i, c.o, c.req, got, c.want)
		}
	}
	if justA.Key() == descA.Key() {
		t.Error("Key must distinguish directions")
	}
	if (Order(nil)).Key() != "" {
		t.Error("empty order must key as \"\"")
	}
	if ab.Key() == justA.Key() {
		t.Error("Key must distinguish lengths")
	}
}

// orderTestRel builds t(a, b, c) sorted by (a asc, b desc); c is
// non-monotone in both directions within (a, b) tie groups, so the
// detected order stops at two keys.
func orderTestRel() *relation.Relation {
	return relation.NewBuilder("t", "a", "b", "c").
		Row(value.NewInt(1), value.NewInt(9), value.NewInt(5)).
		Row(value.NewInt(1), value.NewInt(9), value.NewInt(1)).
		Row(value.NewInt(1), value.NewInt(4), value.NewInt(2)).
		Row(value.NewInt(2), value.NewInt(7), value.NewInt(0)).
		Row(value.NewInt(2), value.NewInt(7), value.NewInt(9)).
		Row(value.NewInt(3), value.NewInt(8), value.NewInt(2)).
		Relation()
}

func TestDetectOrder(t *testing.T) {
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	got := DetectOrder(orderTestRel())
	want := Order{{Attr: a}, {Attr: b, Desc: true}}
	if got.Key() != want.Key() {
		t.Fatalf("DetectOrder = %s, want %s", got, want)
	}

	unsorted := relation.NewBuilder("u", "x").
		Row(value.NewInt(3)).Row(value.NewInt(1)).Row(value.NewInt(2)).
		Relation()
	if ord := DetectOrder(unsorted); len(ord) != 0 {
		t.Errorf("unsorted relation detected as %s", ord)
	}

	// NULLs sort last ascending — a NULL in the middle breaks asc but
	// trailing NULLs do not.
	trailingNull := relation.NewBuilder("n", "x").
		Row(value.NewInt(1)).Row(value.NewInt(2)).Row(value.Null).
		Relation()
	if ord := DetectOrder(trailingNull); len(ord) != 1 || ord[0].Desc {
		t.Errorf("trailing NULL should stay asc-sorted, got %s", ord)
	}
	midNull := relation.NewBuilder("n", "x").
		Row(value.NewInt(1)).Row(value.Null).Row(value.NewInt(2)).
		Relation()
	if ord := DetectOrder(midNull); len(ord) != 0 {
		t.Errorf("NULL in the middle is not sorted either way, got %s", ord)
	}

	// Single-row and empty relations deliver no detectable order.
	if ord := DetectOrder(relation.NewBuilder("e", "x").Relation()); ord != nil {
		t.Errorf("empty relation detected as %s", ord)
	}
}

func TestDeliveredOrderPerNode(t *testing.T) {
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	db := Database{"t": orderTestRel()}
	src := OrderSourceFromDB(db)
	scan := NewScan("t")

	scanOrd := DeliveredOrder(scan, src)
	if !scanOrd.Satisfies(OrderBy(a)) {
		t.Fatalf("scan order %s does not lead with t.a", scanOrd)
	}
	if DeliveredOrder(scan, nil) != nil {
		t.Error("nil source must mean no scan order")
	}

	// Select passes through; non-distinct Project keeps the surviving
	// prefix; distinct Project destroys order.
	sel := NewSelect(expr.Cmp{Op: value.LT, L: expr.Column("t", "a"), R: expr.Int(10)}, scan)
	if DeliveredOrder(sel, src).Key() != scanOrd.Key() {
		t.Error("Select must pass order through")
	}
	proj := NewProject([]schema.Attribute{a}, false, scan)
	if got := DeliveredOrder(proj, src); got.Key() != OrderBy(a).Key() {
		t.Errorf("Project[a] order = %s, want [t.a]", got)
	}
	projB := NewProject([]schema.Attribute{b}, false, scan)
	if got := DeliveredOrder(projB, src); len(got) != 0 {
		t.Errorf("Project[b] drops the leading key, order = %s", got)
	}
	dist := NewProject([]schema.Attribute{a}, true, scan)
	if DeliveredOrder(dist, src) != nil {
		t.Error("distinct Project must deliver nothing")
	}

	// Sort delivers its keys regardless of input.
	srt := NewSort([]SortKey{{Attr: b, Desc: true}}, -1, scan)
	if got := DeliveredOrder(srt, src); got.Key() != (Order{{Attr: b, Desc: true}}).Key() {
		t.Errorf("Sort order = %s", got)
	}

	// MergeJoin: left order for Inner/Left, nothing for Right/Full.
	other := relation.NewBuilder("s", "a").
		Row(value.NewInt(1)).Row(value.NewInt(2)).Relation()
	db["s"] = other
	pred := expr.EqCols("t", "a", "s", "a")
	lk := []schema.Attribute{a}
	rk := []schema.Attribute{schema.Attr("s", "a")}
	for _, kind := range []JoinKind{InnerJoin, LeftJoin} {
		mj := NewMergeJoin(kind, pred, lk, rk, []bool{false}, NewScan("t"), NewScan("s"))
		if got := DeliveredOrder(mj, src); got.Key() != OrderBy(a).Key() {
			t.Errorf("%s merge join order = %s, want [t.a]", kind, got)
		}
	}
	for _, kind := range []JoinKind{RightJoin, FullJoin} {
		mj := NewMergeJoin(kind, pred, lk, rk, []bool{false}, NewScan("t"), NewScan("s"))
		if got := DeliveredOrder(mj, src); got != nil {
			t.Errorf("%s merge join must deliver nothing, got %s", kind, got)
		}
	}

	// StreamAgg delivers its input order; hash operators nothing.
	sa := NewStreamAgg([]schema.Attribute{a},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "c")}},
		OrderBy(a), scan)
	if got := DeliveredOrder(sa, src); got.Key() != OrderBy(a).Key() {
		t.Errorf("StreamAgg order = %s", got)
	}
	hj := NewJoin(InnerJoin, pred, NewScan("t"), NewScan("s"))
	if DeliveredOrder(hj, src) != nil {
		t.Error("hash join must deliver nothing")
	}
	gb := NewGroupBy([]schema.Attribute{a}, nil, scan)
	if DeliveredOrder(gb, src) != nil {
		t.Error("hash GroupBy must deliver nothing")
	}
}

func TestRequalifyOrder(t *testing.T) {
	o := OrderBy(schema.Attr("t", "a"), schema.Attr("t", "b"))
	q := RequalifyOrder(o, "t", "x")
	if q.Key() != OrderBy(schema.Attr("x", "a"), schema.Attr("x", "b")).Key() {
		t.Errorf("requalified = %s", q)
	}
	if RequalifyOrder(o, "t", "t").Key() != o.Key() {
		t.Error("same-name requalify must be identity")
	}
	// Aliased scans requalify the detected order to the alias.
	db := Database{"t": orderTestRel()}
	src := OrderSourceFromDB(db)
	al := NewScanAs("t", "u")
	got := DeliveredOrder(al, src)
	if len(got) == 0 || got[0].Attr != schema.Attr("u", "a") {
		t.Errorf("aliased scan order = %s, want u.a leading", got)
	}
}

// topKInput builds n rows with heavy duplication in the key column
// (forcing tie-breaks), interspersed NULLs, and a payload column that
// distinguishes physically distinct rows with equal keys.
func topKInput(n int) *relation.Relation {
	b := relation.NewBuilder("t", "k", "p")
	for i := 0; i < n; i++ {
		var k value.Value
		switch {
		case i%11 == 3:
			k = value.Null
		default:
			k = value.NewInt(int64((i * 37) % 10)) // many duplicates
		}
		b.Row(k, value.NewInt(int64(i)))
	}
	return b.Relation()
}

// TestSortRowsTopKPinnedToFullSort is the satellite pin: for every
// limit, the bounded-heap top-K selection must return row-for-row the
// same output as the full stable sort truncated — including stable
// tie order among equal keys and NULL placement.
func TestSortRowsTopKPinnedToFullSort(t *testing.T) {
	in := topKInput(100)
	keySets := [][]SortKey{
		{{Attr: schema.Attr("t", "k")}},
		{{Attr: schema.Attr("t", "k"), Desc: true}},
		{{Attr: schema.Attr("t", "k")}, {Attr: schema.Attr("t", "p"), Desc: true}},
	}
	for ki, keys := range keySets {
		idx := []int{0}
		if len(keys) == 2 {
			idx = []int{0, 1}
		}
		for _, limit := range []int{0, 1, 2, 7, 50, 99} {
			want := sortRowsAll(in, keys, idx, limit)
			got := sortRowsTopK(in, keys, idx, limit)
			if got.Len() != want.Len() {
				t.Fatalf("keys=%d limit=%d: topK %d rows, full %d", ki, limit, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				for j := range got.Tuple(i) {
					if !value.Equal(got.Tuple(i)[j], want.Tuple(i)[j]) {
						t.Fatalf("keys=%d limit=%d row %d differs:\ntopK: %v\nfull: %v",
							ki, limit, i, got.Tuple(i), want.Tuple(i))
					}
				}
			}
		}
	}
	// The dispatch in SortRows: limit >= Len takes the full path,
	// limit < Len the heap; both must agree at the boundary.
	keys := keySets[0]
	atLen, _ := SortRows(in, keys, in.Len())
	under, _ := SortRows(in, keys, in.Len()-1)
	if atLen.Len() != in.Len() || under.Len() != in.Len()-1 {
		t.Fatalf("boundary limits wrong: %d, %d", atLen.Len(), under.Len())
	}
	for i := 0; i < under.Len(); i++ {
		if !value.Equal(atLen.Tuple(i)[1], under.Tuple(i)[1]) {
			t.Fatalf("boundary row %d differs", i)
		}
	}
}

// BenchmarkSortRows contrasts the full sort against the bounded heap
// at small k — the top-K path should not allocate or compare
// proportionally to n log n.
func BenchmarkSortRows(b *testing.B) {
	in := topKInput(10000)
	keys := []SortKey{{Attr: schema.Attr("t", "k")}, {Attr: schema.Attr("t", "p")}}
	for _, limit := range []int{-1, 10, 100} {
		name := "full"
		if limit >= 0 {
			name = fmt.Sprintf("top%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SortRows(in, keys, limit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
