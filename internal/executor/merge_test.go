// Property suite for the order-consuming physical operators: the
// sort-merge join and the streaming sorted aggregation must agree —
// as multisets — with the hash engines on randomized inputs across
// all join kinds, NULL keys and duplicate-key blocks, and every output whose plan claims a delivered order must actually
// be sorted (plan.CheckSorted). make race-order runs this file under
// the race detector.
package executor

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// sortedOn returns a copy of rel sorted by the keys (full sort, no
// limit) — the materialized form the order-consuming operators
// require of their inputs.
func sortedOn(t *testing.T, rel *relation.Relation, keys []plan.SortKey) *relation.Relation {
	t.Helper()
	out, err := plan.SortRows(rel, keys, -1)
	if err != nil {
		t.Fatalf("sorting input: %v", err)
	}
	return out
}

func ascKey(rel, col string) []plan.SortKey {
	return []plan.SortKey{{Attr: schema.Attr(rel, col)}}
}

// mergeOn builds a MergeJoin node on l.x = r.x (single key, the
// given direction) with pred as the full join predicate.
func mergeOn(kind plan.JoinKind, pred expr.Pred, lrel, rrel string, desc bool) *plan.MergeJoin {
	return plan.NewMergeJoin(kind, pred,
		[]schema.Attribute{schema.Attr(lrel, "x")},
		[]schema.Attribute{schema.Attr(rrel, "x")},
		[]bool{desc},
		plan.NewScan(lrel), plan.NewScan(rrel))
}

// TestMergeJoinMatchesHashJoin is the core pin: on randomized
// relations with NULL keys and heavy duplication, MergeJoinExec over
// key-sorted inputs returns the same multiset as the hash JoinExec,
// for every join kind, both key directions, and with a non-key
// residual conjunct in the predicate. For Inner and Left joins the
// output must additionally be physically sorted on the left key —
// the delivered-order claim plan.DeliveredOrder makes.
func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	lt := func(a, b string) expr.Pred {
		return expr.Cmp{Op: value.LT, L: expr.Column(a, "y"), R: expr.Column(b, "y")}
	}
	kinds := []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.RightJoin, plan.FullJoin}
	preds := []struct {
		name string
		pred func() expr.Pred
	}{
		{"equi", func() expr.Pred { return eqX("r1", "r2") }},
		{"equi+residual", func() expr.Pred { return expr.And(eqX("r1", "r2"), lt("r1", "r2")) }},
	}
	for trial := 0; trial < 20; trial++ {
		db := randDB(rng, 12, 3, "r1", "r2") // domain 3: long duplicate blocks, ~1/8 NULLs
		for _, kind := range kinds {
			for _, pc := range preds {
				for _, desc := range []bool{false, true} {
					m := mergeOn(kind, pc.pred(), "r1", "r2", desc)
					keys := []plan.SortKey{{Attr: schema.Attr("r1", "x"), Desc: desc}}
					rkeys := []plan.SortKey{{Attr: schema.Attr("r2", "x"), Desc: desc}}
					l := sortedOn(t, db["r1"], keys)
					r := sortedOn(t, db["r2"], rkeys)
					got, err := MergeJoinExec(m, l, r)
					if err != nil {
						t.Fatalf("trial %d %s/%s desc=%v: merge: %v", trial, kind, pc.name, desc, err)
					}
					want, err := JoinExec(kind, pc.pred(), l, r)
					if err != nil {
						t.Fatalf("trial %d %s/%s: hash: %v", trial, kind, pc.name, err)
					}
					if !got.EqualAsMultisets(want) {
						t.Fatalf("trial %d %s/%s desc=%v: merge join differs from hash join\nmerge:\n%s\nhash:\n%s",
							trial, kind, pc.name, desc, got.Format(true), want.Format(true))
					}
					if ord := plan.DeliveredOrder(m, nil); len(ord) > 0 {
						if err := plan.CheckSorted(got, ord); err != nil {
							t.Fatalf("trial %d %s/%s desc=%v: delivered-order claim broken: %v",
								trial, kind, pc.name, desc, err)
						}
					}
				}
			}
		}
	}
}

// TestMergeJoinMultiKey pins the two-key merge (x then y, mixed
// directions) against the hash join, including the duplicate-block
// rescan path and its counter.
func TestMergeJoinMultiKey(t *testing.T) {
	rng := rand.New(rand.NewSource(412))
	pred := expr.And(eqX("r1", "r2"), eqY("r1", "r2"))
	lk := []schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "y")}
	rk := []schema.Attribute{schema.Attr("r2", "x"), schema.Attr("r2", "y")}
	desc := []bool{false, true}
	before := obs.Default().Snapshot().Counters["exec.merge.rescans"]
	for trial := 0; trial < 10; trial++ {
		db := randDB(rng, 20, 2, "r1", "r2") // domain 2: guaranteed equal-key blocks
		m := plan.NewMergeJoin(plan.InnerJoin, pred, lk, rk, desc,
			plan.NewScan("r1"), plan.NewScan("r2"))
		l := sortedOn(t, db["r1"], []plan.SortKey(m.LeftOrder()))
		r := sortedOn(t, db["r2"], []plan.SortKey(m.RightOrder()))
		got, err := MergeJoinExec(m, l, r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := JoinExec(plan.InnerJoin, pred, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsMultisets(want) {
			t.Fatalf("trial %d: multi-key merge differs from hash", trial)
		}
		if err := plan.CheckSorted(got, m.LeftOrder()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if after := obs.Default().Snapshot().Counters["exec.merge.rescans"]; after <= before {
		t.Error("duplicate-heavy workload never exercised the block-rescan path (exec.merge.rescans flat)")
	}
}

// TestStreamAggMatchesHashGroupBy: streaming aggregation over
// key-sorted input returns the same multiset as the hash GroupBy,
// including NULL group keys, every aggregate function, and the
// requirement-aligned key permutation with a desc direction. Output
// must be sorted in the consumed order.
func TestStreamAggMatchesHashGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	aggs := []algebra.Aggregate{
		{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
		{Func: algebra.Count, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "c")},
		{Func: algebra.Sum, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "s"), NullIfEmpty: true},
		{Func: algebra.Min, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "lo"), NullIfEmpty: true},
		{Func: algebra.Max, Arg: expr.Column("r1", "y"), Out: schema.Attr("q", "hi"), NullIfEmpty: true},
	}
	keys := []schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r1", "y")}
	orders := []plan.Order{
		plan.OrderBy(keys...),
		{{Attr: schema.Attr("r1", "y"), Desc: true}, {Attr: schema.Attr("r1", "x")}}, // aligned permutation
	}
	for trial := 0; trial < 20; trial++ {
		db := randDB(rng, 15, 3, "r1")
		for _, inOrder := range orders {
			g := plan.NewStreamAgg(keys, aggs, inOrder, plan.NewScan("r1"))
			in := sortedOn(t, db["r1"], []plan.SortKey(inOrder))
			got, err := StreamAggExec(g, in)
			if err != nil {
				t.Fatalf("trial %d order %s: %v", trial, inOrder, err)
			}
			want, err := plan.NewGroupBy(keys, aggs, plan.NewScan("r1")).Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("trial %d order %s: stream agg differs from hash group by\nstream:\n%s\nhash:\n%s",
					trial, inOrder, got.Format(true), want.Format(true))
			}
			if err := plan.CheckSorted(got, inOrder); err != nil {
				t.Fatalf("trial %d: output not in consumed order: %v", trial, err)
			}
		}
	}
	// Empty input: keyed grouping yields no rows, keyless yields one.
	empty := relation.NewBuilder("r1", "x", "y").Relation()
	g := plan.NewStreamAgg(keys, aggs, orders[0], plan.NewScan("r1"))
	out, err := StreamAggExec(g, empty)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty keyed input: %d rows, err %v", out.Len(), err)
	}
}

// TestOrderOperatorsAcrossEngines runs full plans containing
// MergeJoin and StreamAgg (with enforcer sorts establishing their
// input orders, so Validate passes) through Run and the columnar
// serving entry points (servingEngines): all must agree with the
// reference evaluation as multisets, and the per-operator counters
// must move.
func TestOrderOperatorsAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(414))
	sortX := func(rel string) plan.Node {
		return plan.NewSortOrigin(ascKey(rel, "x"), -1, plan.NewScan(rel), plan.SortOriginEnforcer)
	}
	mj := plan.NewMergeJoin(plan.LeftJoin, eqX("r1", "r2"),
		[]schema.Attribute{schema.Attr("r1", "x")},
		[]schema.Attribute{schema.Attr("r2", "x")},
		[]bool{false}, sortX("r1"), sortX("r2"))
	agg := plan.NewStreamAgg(
		[]schema.Attribute{schema.Attr("r1", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}},
		plan.OrderBy(schema.Attr("r1", "x")),
		plan.NewSortOrigin(ascKey("r1", "x"), -1, mj, plan.SortOriginEnforcer))
	plans := []plan.Node{mj, agg}

	before := obs.Default().Snapshot().Counters
	for trial := 0; trial < 8; trial++ {
		db := randDB(rng, 10, 3, "r1", "r2")
		for pi, p := range plans {
			if err := plan.Validate(p, db); err != nil {
				t.Fatalf("plan %d fails validation: %v", pi, err)
			}
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(p, db)
			if err != nil {
				t.Fatalf("plan %d: Run: %v", pi, err)
			}
			if !got.EqualAsMultisets(want) {
				t.Fatalf("plan %d trial %d: Run differs from reference", pi, trial)
			}
			for _, e := range servingEngines() {
				got, err := e.run(p, db)
				if err != nil {
					t.Fatalf("plan %d: %s: %v", pi, e.name, err)
				}
				if !got.EqualAsMultisets(want) {
					t.Fatalf("plan %d trial %d: %s differs", pi, trial, e.name)
				}
			}
		}
	}
	after := obs.Default().Snapshot().Counters
	if after["exec.merge.runs"] <= before["exec.merge.runs"] {
		t.Error("exec.merge.runs did not move")
	}
	if after["exec.streamagg.runs"] <= before["exec.streamagg.runs"] {
		t.Error("exec.streamagg.runs did not move")
	}
}

// TestMergeJoinRejectsUnsorted: feeding the operators input that
// violates their claimed order must fail with ErrUnsorted, never
// silently drop or duplicate rows.
func TestMergeJoinRejectsUnsorted(t *testing.T) {
	unsorted := func(name string) *relation.Relation {
		return relation.NewBuilder(name, "x", "y").
			Row(value.NewInt(3), value.NewInt(0)).
			Row(value.NewInt(1), value.NewInt(1)).
			Row(value.NewInt(2), value.NewInt(2)).
			Relation()
	}
	sorted := func(name string) *relation.Relation {
		return relation.NewBuilder(name, "x", "y").
			Row(value.NewInt(1), value.NewInt(0)).
			Row(value.NewInt(2), value.NewInt(1)).
			Relation()
	}
	m := mergeOn(plan.LeftJoin, eqX("r1", "r2"), "r1", "r2", false)
	if _, err := MergeJoinExec(m, unsorted("r1"), sorted("r2")); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted left: err = %v, want ErrUnsorted", err)
	}
	if _, err := MergeJoinExec(m, sorted("r1"), unsorted("r2")); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted right: err = %v, want ErrUnsorted", err)
	}
	g := plan.NewStreamAgg(
		[]schema.Attribute{schema.Attr("r1", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}},
		plan.OrderBy(schema.Attr("r1", "x")), plan.NewScan("r1"))
	if _, err := StreamAggExec(g, unsorted("r1")); !errors.Is(err, ErrUnsorted) {
		t.Fatalf("unsorted agg input: err = %v, want ErrUnsorted", err)
	}
}
