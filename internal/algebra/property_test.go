package algebra

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// relPair is a quick.Generator producing two joinable relations with
// small domains, NULLs and duplicates.
type relPair struct {
	r1, r2 *relation.Relation
}

// Generate implements quick.Generator.
func (relPair) Generate(rng *rand.Rand, _ int) reflect.Value {
	gen := func(name string, cols []string) *relation.Relation {
		b := relation.NewBuilder(name, cols...)
		n := rng.Intn(7)
		for i := 0; i < n; i++ {
			vals := make([]value.Value, len(cols))
			for j := range vals {
				if rng.Intn(7) == 0 {
					vals[j] = value.Null
				} else {
					vals[j] = value.NewInt(int64(rng.Intn(3)))
				}
			}
			b.Row(vals...)
		}
		return b.Relation()
	}
	return reflect.ValueOf(relPair{
		r1: gen("r1", []string{"x", "y"}),
		r2: gen("r2", []string{"x", "y"}),
	})
}

var propPred = expr.EqCols("r1", "x", "r2", "x")

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 300} }

// TestPropJoinCommutative: r1 ⋈p r2 = r2 ⋈p r1 as sets.
func TestPropJoinCommutative(t *testing.T) {
	f := func(p relPair) bool {
		return Join(propPred, p.r1, p.r2).EqualAsSets(Join(propPred, p.r2, p.r1))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropFullOuterCommutative: r1 ↔p r2 = r2 ↔p r1 as sets.
func TestPropFullOuterCommutative(t *testing.T) {
	f := func(p relPair) bool {
		return FullOuter(propPred, p.r1, p.r2).EqualAsSets(FullOuter(propPred, p.r2, p.r1))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropLOJContainsJoin: the left outer join contains the inner
// join, and its cardinality is at least |r1|.
func TestPropLOJContainsJoin(t *testing.T) {
	f := func(p relPair) bool {
		join := Join(propPred, p.r1, p.r2)
		loj := LeftOuter(propPred, p.r1, p.r2)
		if loj.Len() < p.r1.Len() || loj.Len() < join.Len() {
			return false
		}
		for _, t := range join.Tuples() {
			if !slices.ContainsFunc(loj.Tuples(), t.EqualTuple) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropFOJDecomposition: ↔ = ⋈ ∪ (r1 ▷) ∪ (▷ r2) with counts.
func TestPropFOJDecomposition(t *testing.T) {
	f := func(p relPair) bool {
		full := FullOuter(propPred, p.r1, p.r2)
		join := Join(propPred, p.r1, p.r2)
		a1 := antiJoin(propPred, p.r1, p.r2)
		a2 := antiJoin(propPred, p.r2, p.r1)
		return full.Len() == join.Len()+a1.Len()+a2.Len()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropGSIdempotentOnSelected: applying σ* twice with the same
// predicate and specs is the same as once (its output's selected part
// passes again and its preserved part is re-preserved).
func TestPropGSIdempotentOnSelected(t *testing.T) {
	f := func(p relPair) bool {
		in := LeftOuter(propPred, p.r1, p.r2)
		pred := expr.EqCols("r1", "y", "r2", "y")
		specs := []map[string]bool{RelSet("r1")}
		once := MustGenSelect(pred, specs, in)
		twice := MustGenSelect(pred, specs, once)
		return twice.EqualAsSets(once)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropGSEmptySpecIsSelect: σ*_p[](r) = σ_p(r).
func TestPropGSEmptySpecIsSelect(t *testing.T) {
	f := func(p relPair) bool {
		in := LeftOuter(propPred, p.r1, p.r2)
		pred := expr.EqCols("r1", "y", "r2", "y")
		return MustGenSelect(pred, nil, in).EqualAsSets(Select(pred, in))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropGSPreservesRelationExactly: after σ*_p[r1], the distinct
// set of non-NULL r1-projections equals the input's (nothing lost,
// nothing invented).
func TestPropGSPreservesRelationExactly(t *testing.T) {
	attrs := func(r *relation.Relation) []schema.Attribute {
		return r.Schema().AttrsOfRels(map[string]bool{"r1": true})
	}
	f := func(p relPair) bool {
		in := Product(p.r1, p.r2)
		pred := expr.EqCols("r1", "y", "r2", "y")
		out := MustGenSelect(pred, []map[string]bool{RelSet("r1")}, in)
		want := in.Project(attrs(in), true)
		got := out.Project(attrs(out), true)
		return got.EqualAsSets(want)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropGroupCountsSumToInput: COUNT(*) per group sums to the input
// cardinality.
func TestPropGroupCountsSumToInput(t *testing.T) {
	cnt := schema.Attr("q", "c")
	f := func(p relPair) bool {
		out := GroupProject(
			[]schema.Attribute{schema.Attr("r1", "x")},
			[]Aggregate{{Func: CountStar, Out: cnt}},
			p.r1)
		var sum int64
		for _, t := range out.Tuples() {
			sum += t[out.Schema().IndexOf(cnt)].Int()
		}
		return sum == int64(p.r1.Len())
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropSelectMonotone: σ never grows a relation and σ_p∘σ_p = σ_p.
func TestPropSelectMonotone(t *testing.T) {
	pred := expr.Cmp{Op: value.GE, L: expr.Column("r1", "x"), R: expr.Int(1)}
	f := func(p relPair) bool {
		once := Select(pred, p.r1)
		return once.Len() <= p.r1.Len() && Select(pred, once).EqualAsSets(once)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropProductCardinality: |r1 × r2| = |r1|·|r2|.
func TestPropProductCardinality(t *testing.T) {
	f := func(p relPair) bool {
		return Product(p.r1, p.r2).Len() == p.r1.Len()*p.r2.Len()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
