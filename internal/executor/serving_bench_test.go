package executor_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/value"
)

// servingShapes are the five hit_scan template shapes of the serving
// benchmark (bench/workloads.go), copied as literals with one constant
// of each template's range filled in.
var servingShapes = []struct{ name, sql string }{
	{"supplier", "select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95 " +
		"from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty " +
		"from agg94, sup_detail where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2 " +
		"left outer join (select supkey, partkey, count(*) as aggqty95 from detail95 group by supkey, partkey) as v3 " +
		"on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < 2 * v3.aggqty95"},
	{"skew_groupby", "select fact.k, count(*) as n from fact, d1, d2 " +
		"where fact.j = d1.j and d1.a = d2.a and fact.k = 0 and fact.v = 0 and d2.tag = 2 group by fact.k"},
	{"loj3_groupby", "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"where r1.x >= 3 group by r1.y"},
	{"mix3_wide", "select r1.x as a, r2.y as b, r3.x as c from r1 join r2 on r1.x = r2.x " +
		"left join r3 on r2.y = r3.y where r1.y < 3001"},
	{"inner3_groupby", "select r2.y, count(*) as n from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y " +
		"and r1.y < 9001 group by r2.y"},
}

// servingDB is the hit_scan database at the benchmark's reduced scale
// (supplier 200/1000 rows, the skew instance over 80, four 30-row
// chain relations), seeded like bench's dataSeed.
func servingDB() plan.Database {
	sup := datagen.DefaultSupplierConfig
	sup.AggRows, sup.DetailRows, sup.Seed = 200, 1000, 1996
	skew := datagen.DefaultSkewConfig
	skew.FactRows /= 80
	skew.DimRows /= 80
	skew.TagRows /= 80
	skew.JoinDomain = skew.DimRows / 40
	skew.ADomain = skew.DimRows / 40
	skew.Seed = 1996
	db := plan.Database{}
	for _, part := range []plan.Database{
		datagen.Supplier(sup),
		datagen.Skewed(skew),
		datagen.Chain(4, datagen.UniformConfig{Rows: 30, Domain: 30, NullFrac: 0.05}, 1996),
	} {
		for name, rel := range part {
			db[name] = rel
		}
	}
	return db
}

// servingPlan is the plan the service would execute for one shape:
// parse, parameterize, lower, optimize the template with its constants
// visible to the estimator (as a cache miss does), bind them back.
func servingPlan(tb testing.TB, text string, db plan.Database) plan.Node {
	tb.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		tb.Fatal(err)
	}
	tmpl, params := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, db)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)).WithParams(params)).Optimize(node, db)
	if err != nil {
		tb.Fatal(err)
	}
	bound, err := plan.BindParams(res.Best.Plan, params)
	if err != nil {
		tb.Fatal(err)
	}
	return bound
}

// execServing runs p as the service does on a cache hit — Exec, the
// result left columnar — and reads every result column, as the
// service's wire encoder does.
func execServing(tb testing.TB, p plan.Node, db plan.Database) *batch.Rel {
	out, _, err := executor.Exec(p, db, executor.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for c := range out.Width() {
		out.Col(c)
	}
	return out
}

// BenchmarkExecServing times one execution per hit_scan shape over
// warm images — what a cache-hit request spends in the executor; B/op
// and allocs/op are what the serving benchmark reports as
// go.alloc_kb_per_req / go.allocs_per_req net of the serving path.
func BenchmarkExecServing(b *testing.B) {
	db := servingDB()
	for _, sh := range servingShapes {
		p := servingPlan(b, sh.sql, db)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				execServing(b, p, db)
			}
		})
	}
}

// BenchmarkExecNonEqui times a join with no equi conjunct, r1.y < r2.y
// over 2 000 × 300 rows, inner and full outer, through Exec: the nested
// loop that probes every build row as a candidate.
func BenchmarkExecNonEqui(b *testing.B) {
	rng := rand.New(rand.NewSource(1996))
	db := plan.Database{}
	for _, r := range []struct {
		name string
		rows int
	}{{"r1", 2000}, {"r2", 300}} {
		rb := relation.NewBuilder(r.name, "x", "y")
		for i := 0; i < r.rows; i++ {
			rb.Row(value.NewInt(int64(i)), value.NewInt(int64(rng.Intn(1000))))
		}
		db[r.name] = rb.Relation()
	}
	pred := expr.Cmp{Op: value.LT, L: expr.Column("r1", "y"), R: expr.Column("r2", "y")}
	for _, kind := range []plan.JoinKind{plan.InnerJoin, plan.FullJoin} {
		p := plan.NewJoin(kind, pred, plan.NewScan("r1"), plan.NewScan("r2"))
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := executor.Exec(p, db, executor.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestExecServingAllocCeiling fails tier-1 when executing a hit_scan
// shape over warm images allocates more than its ceiling. With eager
// gathers and a per-request hash build the five shapes took
// 67.6/420/29.0/22.3/21.4 KB in 218/131/126/82/111 allocations at this
// scale; on shared join indexes and pending columns they take
// 46.0/174/23.4/23.2/20.0 KB in 210/114/102/81/98 (thirty-row chain
// relations leave little to save; at benchmark scale the same shapes
// went from 26.7 MB to 9.0 MB together). Planned with their constants
// visible, as a cache miss plans them, and run through Exec with every
// result column read (no row-major boxing), they take
// 45.2/63.2/20.2/17.7/18.4 KB in 206/104/85/70/82 allocations. With
// each node's output schema, key split and column positions derived on
// its first execution and read afterwards (plan/shape.go) they take
// 38.2/59.0/16.1/14.2/14.2 KB in 171/73/55/47/52 allocations; the
// ceilings, lowered from 58800/82200/26200/23000/23900 B and
// 268/135/111/91/107 allocations, leave ~30% headroom over those, so
// a structural regression — a build side re-hashed per request, every
// column gathered through every join, a schema built per execution —
// trips them.
func TestExecServingAllocCeiling(t *testing.T) {
	ceilings := map[string]struct{ bytes, allocs float64 }{
		"supplier":       {49700, 222},
		"skew_groupby":   {76700, 95},
		"loj3_groupby":   {20900, 72},
		"mix3_wide":      {18500, 61},
		"inner3_groupby": {18500, 68},
	}
	db := servingDB()
	for _, sh := range servingShapes {
		p := servingPlan(t, sh.sql, db)
		run := func() { execServing(t, p, db) }
		run() // builds the images and indexes
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.0f B in %.0f allocations per execution", sh.name, bytes, allocs)
		if c := ceilings[sh.name]; bytes > c.bytes || allocs > c.allocs {
			t.Errorf("%s: %.0f B in %.0f allocations per execution, ceiling %.0f B in %.0f",
				sh.name, bytes, allocs, c.bytes, c.allocs)
		}
	}
}

// TestExecServingOrderIndependent is the metamorphic check on the
// state now cached under the operators: a join index is built from a
// relation's physical row order, and no answer may depend on it.
// Permuting every base relation's tuples — new relations, so every
// image and index is rebuilt over the new order — leaves each shape's
// result multiset unchanged. Not every shape builds on a base table's
// index (skew_groupby, planned with its constants, builds on
// selections), so the premise is that the shapes together do.
func TestExecServingOrderIndependent(t *testing.T) {
	db := servingDB()
	rng := rand.New(rand.NewSource(2202))
	builds := obs.Default().Counter("exec.index.builds")
	indexed := map[string]bool{}
	for _, sh := range servingShapes {
		p := servingPlan(t, sh.sql, db)
		want := execServing(t, p, db).ToRelation()
		for round := 0; round < 3; round++ {
			shuffled := plan.Database{}
			for name, rel := range db {
				tuples := append([]relation.Tuple(nil), rel.Tuples()...)
				rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
				shuffled[name] = relation.New(rel.Schema())
				shuffled[name].AppendAll(tuples)
			}
			before := builds.Value()
			got := execServing(t, p, shuffled).ToRelation()
			if !got.EqualAsMultisets(want) {
				t.Fatalf("%s round %d: the answer depends on the base relations' row order", sh.name, round)
			}
			if builds.Value() > before {
				indexed[sh.name] = true
			}
		}
	}
	if len(indexed) < len(servingShapes)-1 {
		t.Fatalf("test premise: the permuted relations built join indexes for %d shapes (%v), want all but one", len(indexed), indexed)
	}
}
