package executor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/value"
)

// The compensation of a generalized selection or an MGOJ — the
// preserved projections no kept row carries, NULL-padded — is the one
// place where the columnar engine must reproduce a set difference of
// distinct projections. These tests hold it to plan.Eval row for row:
// the same rows in the same order with the same float bits, so a wrong
// group representative, a wrong pad order or a pad too many or too few
// all fail.

// compDomains are the values a column of the compensation tables draws
// from: ints only (the dense grouping path), floats only (two NaN
// payloads, ±0) and a mix (a PhysAny column where INT 1 meets FLOAT 1).
var compDomains = func() [][]value.Value {
	i, f := value.NewInt, value.NewFloat
	nan2 := f(math.Float64frombits(0x7ff8000000000001))
	return [][]value.Value{
		{i(0), i(1), i(2)},
		{f(math.NaN()), nan2, f(math.Copysign(0, -1)), f(0), f(1), f(1.5)},
		{i(0), i(1), f(1), f(math.Copysign(0, -1)), nan2, value.NewString("a")},
	}
}()

// compTable is name(k, v): k draws from domain kinds%3 and v from
// domain kinds/3%3, one row per pair of cells, a cell past the domain
// meaning NULL.
func compTable(name string, kinds byte, cells []byte) *relation.Relation {
	kd, vd := compDomains[kinds%3], compDomains[kinds/3%3]
	cell := func(d []value.Value, b byte) value.Value {
		if i := int(b) % (len(d) + 1); i < len(d) {
			return d[i]
		}
		return value.Null
	}
	b := relation.NewBuilder(name, "k", "v")
	for i := 0; i+1 < len(cells); i += 2 {
		b.Row(cell(kd, cells[i]), cell(vd, cells[i+1]))
	}
	return b.Relation()
}

// compPlans are the generalized selections r1.v = r2.v over r1 ⟕ r2
// and r1 ⟗ r2 (NULL-padded rows on one side, on both), and the MGOJs
// of r1 and r2 on r1.k = r2.k, with a residual r1.v < r2.v, and on
// r1.k < r2.k alone (a nested loop), each under one, several and
// both-input preserved specs.
func compPlans() []plan.Node {
	p := plan.NewPreserved
	specs := [][]plan.PreservedSpec{
		{p("r1")}, {p("r2")}, {p("r1"), p("r2")}, {p("r1", "r2")},
		{p("r1"), p("r1", "r2")}, {p("r2"), p("r1", "r2"), p("r1")},
	}
	eqK, eqV := expr.EqCols("r1", "k", "r2", "k"), expr.EqCols("r1", "v", "r2", "v")
	lt := func(c string) expr.Pred {
		return expr.Cmp{Op: value.LT, L: expr.Column("r1", c), R: expr.Column("r2", c)}
	}
	r1, r2 := plan.NewScan("r1"), plan.NewScan("r2")
	var out []plan.Node
	for _, s := range specs {
		out = append(out,
			plan.NewGenSel(eqV, s, plan.NewJoin(plan.LeftJoin, eqK, r1, r2)),
			plan.NewGenSel(eqV, s, plan.NewJoin(plan.FullJoin, eqK, r1, r2)),
			plan.NewMGOJ(eqK, s, r1, r2),
			plan.NewMGOJ(expr.And(eqK, lt("v")), s, r1, r2),
			plan.NewMGOJ(lt("k"), s, r1, r2))
	}
	return out
}

// checkCompensation holds every compensation plan over db, through
// Exec and through the walker one row per batch, to plan.Eval's rows in
// Eval's order.
func checkCompensation(t *testing.T, db plan.Database) {
	t.Helper()
	for _, p := range compPlans() {
		want, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := Exec(p, db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		single, err := (&vecEngine{db: db, batch: 1, reg: obs.NewRegistry()}).run(p)
		if err != nil {
			t.Fatalf("%s at batch 1: %v", p, err)
		}
		for _, got := range []*relation.Relation{out.ToRelation(), single} {
			if !slices.Equal(got.Schema().Attrs(), want.Schema().Attrs()) || !slices.Equal(rowBits(got), rowBits(want)) {
				t.Fatalf("%s over\n%s%s\ngot  %q\nwant %q", p, db["r1"], db["r2"], rowBits(got), rowBits(want))
			}
		}
	}
}

// compDB is r1 and r2 over the cells: r1 takes the first n1 pairs,
// r2 the rest, each table's columns the domains its kinds byte picks.
func compDB(kinds byte, n1 int, cells []byte) plan.Database {
	n1 = min(2*n1, len(cells)&^1)
	return plan.Database{"r1": compTable("r1", kinds%9, cells[:n1]), "r2": compTable("r2", kinds/9%9, cells[n1:])}
}

// TestCompensationMatchesEval: the compensation plans over seeded
// random tables of every domain pairing — duplicates, NULLs, all-NULL
// rows, NaN, ±0, INT 1 beside FLOAT 1 — and over empty inputs on either
// side or both.
func TestCompensationMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for kinds := 0; kinds < 81; kinds++ {
		for rep := 0; rep < 3; rep++ {
			cells := make([]byte, 2*rng.Intn(16))
			rng.Read(cells)
			db := compDB(byte(kinds), rng.Intn(9), cells)
			t.Run(fmt.Sprintf("kinds=%d/%d", kinds, rep), func(t *testing.T) { checkCompensation(t, db) })
		}
	}
	some := []byte{0, 1, 1, 0, 3, 3, 2, 2}
	for _, n1 := range []int{0, 4} { // r1 empty, r2 empty
		checkCompensation(t, compDB(40, n1, some))
	}
	checkCompensation(t, compDB(40, 0, nil))
}

// FuzzCompensation: the compensation plans over any tables the bytes
// decode to: kinds picks the two tables' domains (compDB), n1 the rows
// of r1 and cells, two a row, the values.
func FuzzCompensation(f *testing.F) {
	f.Add(byte(0), byte(2), []byte{0, 1, 1, 0, 3, 3, 2, 2})
	f.Add(byte(40), byte(3), []byte{0, 6, 6, 0, 2, 3, 4, 5, 1, 6, 6, 6})
	f.Add(byte(80), byte(1), []byte{2, 3, 3, 2, 4, 1, 6, 6})
	f.Add(byte(13), byte(0), []byte{1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, kinds, n1 byte, cells []byte) {
		checkCompensation(t, compDB(kinds, int(n1)%9, cells[:min(len(cells), 40)]))
	})
}
