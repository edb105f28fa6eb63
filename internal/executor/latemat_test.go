// Late materialization and the shared join index sit under every
// columnar operator, so what they must not change is pinned against
// the reference evaluator (plan.Eval) rather than against another
// engine: stacked outer joins whose output columns stay pending
// through several selection-vector compositions, NULL padding carried
// through the views, residual predicates that read whole tuples, a
// column nothing ever reads, and the swapped and spilled join
// variants. make race runs this file under the race detector.
package executor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// lateDB is mixedDB plus a column m that mixes ints, floats and
// strings (PhysAny in the image) and that no test plan reads.
func lateDB(rng *rand.Rand, rows, domain int, rels ...string) plan.Database {
	db := make(plan.Database, len(rels))
	for _, name := range rels {
		b := relation.NewBuilder(name, "x", "y", "f", "m")
		for i, n := 0, rows/2+rng.Intn(rows/2+1); i < n; i++ {
			vals := []value.Value{
				value.NewInt(int64(rng.Intn(domain))),
				value.NewInt(int64(rng.Intn(domain))),
				value.NewFloat(rng.NormFloat64() * 1e3),
				[]value.Value{value.NewInt(7), value.NewFloat(0.5), value.NewString("m")}[rng.Intn(3)],
			}
			for j := range vals {
				if rng.Intn(10) == 0 {
					vals[j] = value.Null
				}
			}
			b.Row(vals...)
		}
		db[name] = b.Relation()
	}
	return db
}

// bitRows renders a relation's tuples with floats as their IEEE bits,
// sorted — equal renderings mean equal multisets down to the last bit
// of every float.
func bitRows(r *relation.Relation) []string {
	rows := make([]string, r.Len())
	for i, t := range r.Tuples() {
		var b strings.Builder
		for _, v := range t {
			if !v.IsNull() && v.Kind() == value.KindFloat {
				fmt.Fprintf(&b, "f%016x|", math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&b, "%d:%s|", v.Kind(), v)
			}
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return rows
}

func sameBits(got, want *relation.Relation) bool {
	if !got.Schema().Equal(want.Schema()) {
		return false
	}
	g, w := bitRows(got), bitRows(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// stackedJoins is r1 ⟕ r2 ⟕ r3 ⟗ r4: the first and last joins carry a
// residual conjunct (evaluated over whole tuples, so it forces every
// pending column of both sides), the middle one keys on a column that
// is NULL-padded by the join below it.
func stackedJoins() plan.Node {
	ltY := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	ltF := expr.Cmp{Op: value.LT, L: expr.Column("r3", "f"), R: expr.Column("r4", "f")}
	j1 := plan.NewJoin(plan.LeftJoin, expr.And(eqX("r1", "r2"), ltY), plan.NewScan("r1"), plan.NewScan("r2"))
	j2 := plan.NewJoin(plan.LeftJoin, eqY("r2", "r3"), j1, plan.NewScan("r3"))
	return plan.NewJoin(plan.FullJoin, expr.And(eqX("r3", "r4"), ltF), j2, plan.NewScan("r4"))
}

// latePlans are read through late materialization in different ways:
// a narrow projection (most columns are never gathered), the same
// joins without residuals under a selection (views composed three
// deep, nothing forced), and float aggregates over the padded output.
func latePlans() []plan.Node {
	noResidual := plan.NewJoin(plan.FullJoin, eqX("r3", "r4"),
		plan.NewJoin(plan.LeftJoin, eqY("r2", "r3"),
			plan.NewJoin(plan.LeftJoin, eqX("r1", "r2"), plan.NewScan("r1"), plan.NewScan("r2")),
			plan.NewScan("r3")),
		plan.NewScan("r4"))
	return []plan.Node{
		plan.NewProject([]schema.Attribute{schema.Attr("r1", "x"), schema.Attr("r2", "f"), schema.Attr("r4", "y")}, false,
			stackedJoins()),
		plan.NewProject([]schema.Attribute{schema.Attr("r4", "f"), schema.Attr("r1", "y")}, false,
			plan.NewSelect(expr.Cmp{Op: value.GE, L: expr.Column("r2", "x"), R: expr.Int(2)}, noResidual)),
		plan.NewGroupBy(
			[]schema.Attribute{schema.Attr("r1", "x")},
			[]algebra.Aggregate{
				{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
				{Func: algebra.Sum, Arg: expr.Column("r2", "f"), Out: schema.Attr("q", "s2")},
				{Func: algebra.Avg, Arg: expr.Column("r4", "f"), Out: schema.Attr("q", "a4")},
				{Func: algebra.Min, Arg: expr.Column("r3", "f"), Out: schema.Attr("q", "m3")},
				{Func: algebra.Sum, Arg: expr.Column("r4", "y"), Out: schema.Attr("q", "sy")},
			},
			stackedJoins()),
	}
}

// TestLateMaterializationMatchesEval: every plan, at every batch size,
// equals plan.Eval as a multiset down to the bits of its floats; the
// swapped variant of the un-aggregated plans (its row order differs, so
// float sums may legitimately round differently) equals it the same
// way.
func TestLateMaterializationMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	for trial := 0; trial < 2; trial++ {
		db := lateDB(rng, 120, 31, "r1", "r2", "r3", "r4")
		for pi, p := range latePlans() {
			want, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range vecBatchSizes {
				e := &vecEngine{db: db, batch: bs, reg: obs.NewRegistry()}
				got, err := e.run(p)
				if err != nil {
					t.Fatalf("plan %d batch %d: %v", pi, bs, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("trial %d plan %d batch %d: differs from plan.Eval", trial, pi, bs)
				}
				if _, grouped := p.(*plan.GroupBy); grouped {
					continue
				}
				reg := obs.NewRegistry()
				e = &vecEngine{db: db, batch: bs, reg: reg, adapt: &Adapt{SwapFactor: 0.01}}
				if got, err = e.run(p); err != nil {
					t.Fatalf("plan %d batch %d swapped: %v", pi, bs, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("trial %d plan %d batch %d: swapped variant differs from plan.Eval", trial, pi, bs)
				}
				if reg.Counter("exec.adapt.swaps").Value() != 3 {
					t.Fatalf("plan %d: %d of 3 joins swapped", pi, reg.Counter("exec.adapt.swaps").Value())
				}
			}
		}
	}
}

// TestLateMaterializationOverSpilledJoin: the bottom join's build side
// (r2, twenty times the other relations) cannot fit the byte budget and
// is joined partition by partition; the joins above it compose their
// views over that join's Gather2 output. Same answer as plan.Eval, bit
// for bit.
func TestLateMaterializationOverSpilledJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2203))
	db := lateDB(rng, 80, 1500, "r1", "r3", "r4")
	db["r2"] = lateDB(rng, 3000, 1500, "r2")["r2"]
	for pi, p := range latePlans()[:2] { // row order changes under spill; see above
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range vecBatchSizes {
			reg := obs.NewRegistry()
			b := guard.New(context.Background(), guard.Limits{MaxBytes: 400_000}, reg)
			e := &vecEngine{db: db, b: b, batch: bs, reg: reg, adapt: &Adapt{Spill: true}}
			got, err := e.run(p)
			if err != nil {
				t.Fatalf("plan %d batch %d: %v", pi, bs, err)
			}
			if !sameBits(got, want) {
				t.Fatalf("plan %d batch %d: differs from plan.Eval", pi, bs)
			}
			if n := reg.Counter("exec.adapt.spill_escalations").Value(); n != 1 {
				t.Fatalf("plan %d batch %d: %d joins spilled, want the bottom one only", pi, bs, n)
			}
		}
	}
}
