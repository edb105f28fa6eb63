package executor

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The adversarial collision suite: int64s beyond 2^53 that share a
// float64 image hash identically under value.Hash64 while remaining
// unequal under value.Equal (and under the SQL `=` of the reference
// semantics). Every hash consumer must therefore verify bucket hits —
// these tests prove the verification keeps results correct when every
// tuple collides.

const collideBase = int64(1) << 53

func collideVal(i int) value.Value { return value.NewInt(collideBase + int64(i)) }

// collideRel builds rel with n rows whose x column cycles through k
// mutually colliding values and a y payload.
func collideRel(name string, n, k int) *relation.Relation {
	b := relation.NewBuilder(name, "x", "y")
	for i := 0; i < n; i++ {
		b.Row(collideVal(i%k), value.NewInt(int64(i)))
	}
	return b.Relation()
}

func TestCollidingValuesPremise(t *testing.T) {
	a, b := collideVal(0), collideVal(1)
	if value.Equal(a, b) {
		t.Fatal("premise: values must be unequal")
	}
	if a.Hash64() != b.Hash64() {
		t.Fatal("premise: values must collide in Hash64")
	}
}

// TestHashJoinCollisionVerification: Run's tuple hash join over inputs
// where every key shares one hash bucket still matches only truly
// equal keys. (The columnar join's collision count is pinned by
// TestCollidingKeysExec.)
func TestHashJoinCollisionVerification(t *testing.T) {
	l := collideRel("l", 4, 2) // x: big, big+1, big, big+1
	r := collideRel("r", 4, 2)
	out, err := joinExec(plan.InnerJoin, expr.EqCols("l", "x", "r", "x"), l, r)
	if err != nil {
		t.Fatal(err)
	}
	// 2 left rows of each key × 2 right rows of the same key = 8 rows;
	// without verification the single bucket would yield 16.
	if out.Len() != 8 {
		t.Fatalf("join produced %d rows, want 8:\n%s", out.Len(), out.String())
	}
}

// TestGroupByCollisions: grouping keys that collide must still form
// distinct groups.
func TestGroupByCollisions(t *testing.T) {
	rel := collideRel("t", 90, 3)
	out := algebra.GroupProject(
		[]schema.Attribute{schema.Attr("t", "x")},
		[]algebra.Aggregate{{Func: algebra.CountStar, Out: schema.Attr("q", "n")}},
		rel)
	if out.Len() != 3 {
		t.Fatalf("grouping produced %d groups, want 3:\n%s", out.Len(), out)
	}
	for _, tu := range out.Tuples() {
		if n := tu[out.Schema().IndexOf(schema.Attr("q", "n"))]; n.Int() != 30 {
			t.Fatalf("group count %d, want 30", n.Int())
		}
	}
}

// TestDistinctAggCollisions: duplicate-insensitive aggregates must
// not merge colliding-but-distinct argument values.
func TestDistinctAggCollisions(t *testing.T) {
	b := relation.NewBuilder("t", "x")
	for i := 0; i < 6; i++ {
		b.Row(collideVal(i % 2))
	}
	out := algebra.GroupProject(nil,
		[]algebra.Aggregate{{Func: algebra.CountDistinct, Arg: expr.Column("t", "x"), Out: schema.Attr("q", "n")}},
		b.Relation())
	if got := out.Tuple(0)[out.Schema().IndexOf(schema.Attr("q", "n"))].Int(); got != 2 {
		t.Fatalf("count(distinct) over colliding values = %d, want 2", got)
	}
}

// TestGenSelMGOJCollisions: the compensation paths (distinct
// projection + set difference) stay correct when the preserved
// projections collide, cross-checked against the reference Eval.
func TestGenSelMGOJCollisions(t *testing.T) {
	db := plan.Database{
		"r1": collideRel("r1", 8, 4),
		"r2": collideRel("r2", 6, 3),
	}
	plans := []plan.Node{
		plan.NewGenSel(expr.EqCols("r1", "y", "r2", "y"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewJoin(plan.LeftJoin, expr.EqCols("r1", "x", "r2", "x"),
				plan.NewScan("r1"), plan.NewScan("r2"))),
		plan.NewMGOJ(expr.EqCols("r1", "x", "r2", "x"), []plan.PreservedSpec{plan.NewPreserved("r1")},
			plan.NewScan("r1"), plan.NewScan("r2")),
	}
	for pi, p := range plans {
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(p, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualAsSets(want) {
			t.Fatalf("plan %d: executor differs from reference under collisions\ngot:\n%s\nwant:\n%s",
				pi, got.String(), want.String())
		}
		for _, e := range servingEngines() {
			col, err := e.run(p, db)
			if err != nil {
				t.Fatal(err)
			}
			if !col.EqualAsSets(want) {
				t.Fatalf("plan %d: %s differs from reference under collisions", pi, e.name)
			}
		}
	}
}

// TestCollidingKeysExec holds the columnar engine to the same contract
// through Exec. The colliding keys 2^53+i are a dense range, so the
// join looks them up by key − min — no hash, nothing to collide — and
// must still be exact. One outlier key widens the build side's span
// past the dense rule: that join hashes, meets the collisions, and
// must verify them away, counting them on exec.hash.collisions.
func TestCollidingKeysExec(t *testing.T) {
	outlier := collideRel("r2", 6, 3)
	outlier.Append(relation.Tuple{value.NewInt(0), value.NewInt(6), value.NewInt(6)})
	for _, c := range []struct {
		name   string
		r2     *relation.Relation
		lookup int64 // dense_lookup: 1 dense, 0 hashed
	}{
		{"dense", collideRel("r2", 6, 3), 1},
		{"outlier", outlier, 0},
	} {
		db := plan.Database{"r1": collideRel("r1", 8, 4), "r2": c.r2}
		for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.LeftJoin, plan.FullJoin} {
			p := plan.NewJoin(kind, expr.EqCols("r1", "x", "r2", "x"), plan.NewScan("r1"), plan.NewScan("r2"))
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			out, ann, err := Exec(p, db, Options{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.ToRelation(); !got.EqualAsMultisets(want) {
				t.Fatalf("%s %s: Exec differs from reference under collisions\ngot:\n%s\nwant:\n%s",
					c.name, kind, got.String(), want.String())
			}
			if got := ann.For(p).Extra["dense_lookup"]; got != c.lookup {
				t.Fatalf("%s %s: dense_lookup=%d, want %d", c.name, kind, got, c.lookup)
			}
			collisions := reg.Counter("exec.hash.collisions").Value()
			if (collisions > 0) != (c.lookup == 0) {
				t.Fatalf("%s %s: %d hash collisions counted; a dense lookup has none, a hashed one must verify some", c.name, kind, collisions)
			}
		}
	}
}
