package optimizer_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
)

// coldShapes are the five cold_plan template shapes of the serving
// benchmark (bench/workloads.go), copied as literals.
var coldShapes = []struct{ name, sql string }{
	{"loj5_complex", "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y and r3.x >= r1.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y and r5.x >= r1.y where r1.y = 7"},
	{"inner4_loj", "select r1.y, r5.x from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y join r4 on r3.x = r4.x " +
		"left join r5 on r4.y = r5.y where r1.x = 7"},
	{"star4_complex", "select r1.x, r4.y from r1, r2, r3, r4 " +
		"where r1.x = r2.x and r1.y = r3.y and r1.x = r4.x and r2.y < r3.x + r4.y and r1.y = 7"},
	{"loj6", "select r1.x, r6.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y left join r6 on r5.x = r6.x where r1.y = 7"},
	{"mix5_groupby", "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y where r1.x = 7 group by r1.y"},
}

// coldDB is the cold_plan database: a 7-relation chain, 300 rows each.
func coldDB() plan.Database {
	return datagen.Chain(7, datagen.UniformConfig{Rows: 300, Domain: 150, NullFrac: 0.05}, 1996)
}

// coldTemplate parses, parameterizes and lowers a shape the way the
// service does before it optimizes.
func coldTemplate(tb testing.TB, text string, db plan.Database) plan.Node {
	tb.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	tmpl, _ := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, db)
	if err != nil {
		tb.Fatal(err)
	}
	return node
}

// BenchmarkExploreCold times one cold optimization (explore, extract,
// cost) per cold_plan shape; allocs/op is the figure the serving
// benchmark reports as go.allocs_per_req on that workload.
func BenchmarkExploreCold(b *testing.B) {
	db := coldDB()
	est := stats.NewEstimator(stats.FromDatabase(db))
	for _, sh := range coldShapes {
		node := coldTemplate(b, sh.sql, db)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := optimizer.New(est)
				o.Opts.Obs = obs.NewRegistry()
				if _, err := o.Optimize(node, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExploreColdAllocCeiling fails tier-1 when one cold optimization
// of a cold_plan shape allocates more than its ceiling. Exploration
// keyed on whole-tree strings, with a join-tree list per group, took
// ≈277k allocations for loj6; keyed on shapes it took 22 512, most of
// them binding and result nodes. Binding ScopeChild rules only where
// the operator kinds match their patterns (memo.child_bindings 6 278 →
// 1 832 on loj6), and numbering atoms and resolving relation names
// without maps, brought the five shapes from 10 360 / 31 188 / 8 741 /
// 22 510 / 9 866 to 8 569 / 25 946 / 8 190 / 16 463 / 8 213.
// TestMemoChildPatternsSound pins the binding counts exactly.
// Extraction that prices each expression locally at its groups'
// cardinalities, materializing only each group's winner, instead of
// building and costing a tree per candidate through a subtree-keyed
// cache, brought them to 4 792 / 21 352 / 5 276 / 12 516 / 6 030; each
// ceiling sits just above its count. Not run under -race, which
// changes the counts.
func TestExploreColdAllocCeiling(t *testing.T) {
	ceilings := map[string]float64{
		"loj5_complex":  5000,
		"inner4_loj":    22000,
		"star4_complex": 5500,
		"loj6":          13000,
		"mix5_groupby":  6300,
	}
	db := coldDB()
	est := stats.NewEstimator(stats.FromDatabase(db))
	for _, sh := range coldShapes {
		node := coldTemplate(t, sh.sql, db)
		allocs := testing.AllocsPerRun(5, func() {
			o := optimizer.New(est)
			o.Opts.Obs = obs.NewRegistry()
			if _, err := o.Optimize(node, db); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per optimization", sh.name, allocs)
		if c := ceilings[sh.name]; allocs > c {
			t.Errorf("optimizing %s took %.0f allocations, ceiling %.0f", sh.name, allocs, c)
		}
	}
}
