// Differential suite for the columnar sort's presorted check: on every
// input, presorted(in, keys) must be true exactly when plan.SortRows
// returns in unchanged, and a Sort on the columnar engine must return
// SortRows's rows whichever way the check answers. make race runs
// this file under the race detector.
package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// presortedKinds generate one column's values per physical kind. The
// PhysAny generator mixes INT, FLOAT and STRING values.
var presortedKinds = []struct {
	phys batch.Phys
	gen  func(rng *rand.Rand) value.Value
}{
	{batch.PhysInt, func(rng *rand.Rand) value.Value { return value.NewInt(int64(rng.Intn(9) - 4)) }},
	{batch.PhysFloat, func(rng *rand.Rand) value.Value {
		if rng.Intn(8) == 0 {
			return value.NewFloat(math.Copysign(0, -1))
		}
		return value.NewFloat(float64(rng.Intn(9)) / 4)
	}},
	{batch.PhysStr, func(rng *rand.Rand) value.Value { return value.NewString(fmt.Sprintf("s%d", rng.Intn(9))) }},
	{batch.PhysAny, func(rng *rand.Rand) value.Value {
		switch rng.Intn(3) {
		case 0:
			return value.NewInt(int64(rng.Intn(5)))
		case 1:
			return value.NewFloat(float64(rng.Intn(9)) / 2)
		}
		return value.NewString(fmt.Sprintf("s%d", rng.Intn(3)))
	}},
}

// presortedInputs builds the shapes the check must tell apart over
// columns (a, b) of one kind: sorted on the keys, in reverse, all tied
// on a, sorted on the leading key only, NULL-bearing and sorted,
// sorted but for its last row, and unsorted.
func presortedInputs(t *testing.T, rng *rand.Rand, gen func(*rand.Rand) value.Value, keys []plan.SortKey) map[string]*relation.Relation {
	t.Helper()
	build := func(rows int, nulls bool, tieA bool) *relation.Relation {
		b := relation.NewBuilder("t", "a", "b")
		tie := gen(rng)
		for i := 0; i < rows; i++ {
			a, bv := gen(rng), gen(rng)
			if tieA {
				a = tie
			}
			if nulls && rng.Intn(5) == 0 {
				a = value.Null
			}
			if nulls && rng.Intn(5) == 0 {
				bv = value.Null
			}
			b.Row(a, bv)
		}
		return b.Relation()
	}
	sorted := func(r *relation.Relation, keys []plan.SortKey) *relation.Relation {
		out, err := plan.SortRows(r, keys, -1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reverse := make([]plan.SortKey, len(keys))
	for i, k := range keys {
		reverse[i] = plan.SortKey{Attr: k.Attr, Desc: !k.Desc}
	}
	// A copy of the first row, appended, is out of order unless every
	// row ties on the keys.
	lastOut := sorted(build(60, false, false), keys)
	lastOut.Append(lastOut.Tuple(0).Clone())
	// One adjacent pair that differs on the keys, swapped: a single
	// violation, on the last key the pair differs on.
	swapped := sorted(build(60, true, false), keys)
	rows := swapped.Tuples()
	for i := len(rows) - 1; i > 0; i-- {
		if differ(swapped, keys, rows[i-1], rows[i]) {
			rows[i-1], rows[i] = rows[i], rows[i-1]
			break
		}
	}
	return map[string]*relation.Relation{
		"one pair swapped":            swapped,
		"sorted":                      sorted(build(60, false, false), keys),
		"reverse":                     sorted(build(60, false, false), reverse),
		"tied":                        sorted(build(60, false, true), keys),
		"tied, on the first key only": sorted(build(60, false, true), keys[:1]),
		"on the first key only":       sorted(build(60, true, false), keys[:1]),
		"nulls":                       sorted(build(60, true, false), keys),
		"lastOut":                     lastOut,
		"unsorted":                    build(60, true, false),
		"one row":                     build(1, false, false),
		"empty":                       build(0, false, false),
	}
}

// differ reports whether rows x and y of r differ on any key.
func differ(r *relation.Relation, keys []plan.SortKey, x, y relation.Tuple) bool {
	for _, k := range keys {
		i := r.Schema().IndexOf(k.Attr)
		if plan.CompareForSort(x[i], y[i]) != 0 {
			return true
		}
	}
	return false
}

// TestPresortedMatchesSortRows is the differential: across PhysInt,
// PhysFloat, PhysStr and PhysAny columns, one and two keys in both
// directions, presorted answers true exactly when SortRows would give
// the input back, and the columnar Sort returns SortRows's rows.
func TestPresortedMatchesSortRows(t *testing.T) {
	a, b := schema.Attr("t", "a"), schema.Attr("t", "b")
	keySets := [][]plan.SortKey{
		{{Attr: a}},
		{{Attr: a, Desc: true}},
		{{Attr: a}, {Attr: b, Desc: true}},
		{{Attr: a, Desc: true}, {Attr: b}},
	}
	rng := rand.New(rand.NewSource(37))
	for _, kind := range presortedKinds {
		seen := map[bool]int{}
		for _, keys := range keySets {
			for shape, rel := range presortedInputs(t, rng, kind.gen, keys) {
				name := fmt.Sprintf("%s/%s/%v", kind.phys, shape, keys)
				in := batch.FromRelation(rel)
				if rel.Len() > 1 && shape[:4] != "tied" && in.Col(0).Phys != kind.phys {
					t.Fatalf("%s: test premise: column a is %s", name, in.Col(0).Phys)
				}
				want, err := plan.SortRows(rel, keys, -1)
				if err != nil {
					t.Fatal(err)
				}
				unchanged := true
				for i := 0; i < rel.Len(); i++ {
					if !want.Tuple(i).EqualTuple(rel.Tuple(i)) {
						unchanged = false
						break
					}
				}
				got := presorted(in, keys)
				if got != unchanged {
					t.Fatalf("%s: presorted = %v, SortRows leaves the input unchanged = %v", name, got, unchanged)
				}
				seen[got]++
				out, err := runVec(plan.NewSort(keys, -1, plan.NewScan("t")), plan.Database{"t": rel}, nil, 1024, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < want.Len(); i++ {
					if !out.Tuple(i).EqualTuple(want.Tuple(i)) {
						t.Fatalf("%s: columnar sort row %d = %v, SortRows %v", name, i, out.Tuple(i), want.Tuple(i))
					}
				}
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("%s: test premise: presorted answered only %v", kind.phys, seen)
		}
	}
}

// TestPresortedRejectsNaN: a NaN key is not ordered consistently by the
// comparator, so the check answers false and the sort runs.
func TestPresortedRejectsNaN(t *testing.T) {
	keys := []plan.SortKey{{Attr: schema.Attr("t", "a")}}
	for _, vals := range [][]value.Value{
		{value.NewFloat(1), value.NewFloat(math.NaN()), value.NewFloat(0)},
		{value.NewInt(1), value.NewFloat(math.NaN()), value.NewString("x")},
	} {
		b := relation.NewBuilder("t", "a")
		for _, v := range vals {
			b.Row(v)
		}
		if presorted(batch.FromRelation(b.Relation()), keys) {
			t.Errorf("%v: presorted = true over a NaN", vals)
		}
	}
}
