// Benchmarks regenerating the measurable side of every experiment in
// DESIGN.md's index (E1–E12). Each experiment that compares two
// strategies gets one benchmark per strategy, so `go test -bench=.`
// prints the paper's "who wins, by how much" shape directly.
package reorder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
)

// --- E1: generalized selection over Example 2.1-shaped data ---------

// BenchmarkE1GSCompensation measures a compensated plan (GS over a
// reordered outer-join pair, the Example 2.1 shape) at scale.
func BenchmarkE1GSCompensation(b *testing.B) {
	db := Database{}
	for i, name := range []string{"r1", "r2", "r3"} {
		db[name] = datagen.Uniform(newRand(int64(i+1)), name,
			datagen.UniformConfig{Rows: 800, Domain: 200})
	}
	q := experiments.Query2()
	split, err := core.DeferConjuncts(q, q.(*plan.Join), []int{0})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(split, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E3: hypergraph construction and association-tree enumeration

func BenchmarkE2Hypergraph(b *testing.B) {
	q := experiments.Q4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hypergraph(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3AssociationTrees(b *testing.B) {
	q := experiments.Q4()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AssociationTreeCounts(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4/E5/E6: identity application and Theorem 1 splitting ---------

func BenchmarkE4IdentitySplit(b *testing.B) {
	q := experiments.Query2()
	top := q.(*plan.Join)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DeferConjuncts(q, top, []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Example 1.1, aggregate-first vs join-first -----------------

func e7DB() Database {
	cfg := datagen.DefaultSupplierConfig
	cfg.DetailRows = 10000
	return datagen.Supplier(cfg)
}

func BenchmarkE7AsWritten(b *testing.B) {
	db := e7DB()
	q, _, err := experiments.E7Plans(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Reordered(b *testing.B) {
	db := e7DB()
	_, q, err := experiments.E7Plans(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: TIS vs unnested join-aggregate -----------------------------

func BenchmarkE8TIS(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("r1=%d", n), func(b *testing.B) {
			db := experiments.E8DB(n, experiments.DefaultE8Config())
			q := experiments.E8Query()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.TIS(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8Unnested(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("r1=%d", n), func(b *testing.B) {
			db := experiments.E8DB(n, experiments.DefaultE8Config())
			q := experiments.E8Query()
			unnested, err := q.Unnest(db)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := executor.Run(unnested, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Query 2 as written vs the GS reordering ---------------------

func e9DB() Database {
	db := Database{}
	db["r1"] = datagen.Uniform(newRand(9), "r1", datagen.UniformConfig{Rows: 5000, Domain: 100})
	db["r2"] = datagen.Uniform(newRand(10), "r2", datagen.UniformConfig{Rows: 200, Domain: 100})
	db["r3"] = datagen.Uniform(newRand(11), "r3", datagen.UniformConfig{Rows: 200, Domain: 100})
	return db
}

func BenchmarkE9AsWritten(b *testing.B) {
	db := e9DB()
	q := experiments.Query2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9Reordered(b *testing.B) {
	db := e9DB()
	q := experiments.Query2()
	res, err := Optimize(context.Background(), q, db, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(res.Best.Plan, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: optimizer enumeration scaling -----------------------------

func BenchmarkE10Saturation(b *testing.B) {
	for n := 3; n <= 5; n++ {
		q := chainQuery(n)
		b.Run(fmt.Sprintf("rels=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Saturate(q, core.SaturateOptions{MaxPlans: 100000})
			}
		})
	}
}

func BenchmarkE10Optimize(b *testing.B) {
	db := datagen.Chain(5, datagen.UniformConfig{Rows: 100, Domain: 20}, 10)
	for n := 3; n <= 5; n++ {
		q := chainQuery(n)
		est := stats.NewEstimator(stats.FromDatabase(db))
		b.Run(fmt.Sprintf("rels=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := optimizer.New(est).Optimize(q, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E11: GS as the primitive binary operator -----------------------

func BenchmarkE11GenSelect(b *testing.B) {
	db := e9DB()
	q := experiments.Query2()
	split, err := core.DeferConjuncts(q, q.(*plan.Join), []int{0})
	if err != nil {
		b.Fatal(err)
	}
	gs := split.(*plan.GenSel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(gs, db); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: Example 3.1 push-up at scale -------------------------------

func BenchmarkE12PushUpOriginal(b *testing.B) {
	db := e12DB()
	q, _, err := experiments.E12Plans(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12PushUpRewritten(b *testing.B) {
	db := e12DB()
	_, q, err := experiments.E12Plans(db)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := executor.Run(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func e12DB() Database {
	db := Database{}
	db["r1"] = datagen.Uniform(newRand(21), "r1", datagen.UniformConfig{Rows: 800, Domain: 50})
	db["r2"] = datagen.Uniform(newRand(22), "r2", datagen.UniformConfig{Rows: 800, Domain: 50})
	db["r3"] = datagen.Uniform(newRand(23), "r3", datagen.UniformConfig{Rows: 100, Domain: 50})
	return db
}

// --- executor-strategy benchmarks ------------------------------------

// BenchmarkExecutorStrategies compares the two engines on the same
// three-way outer-join query: the row reference and the columnar
// production walker.
func BenchmarkExecutorStrategies(b *testing.B) {
	db := Database{}
	for i, name := range []string{"r1", "r2", "r3"} {
		db[name] = datagen.Uniform(newRand(int64(100+i)), name,
			datagen.UniformConfig{Rows: 20000, Domain: 2000})
	}
	q := experiments.Query2()
	b.Run("Run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := executor.Run(q, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RunGuarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := executor.RunGuarded(q, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- observability benchmarks ----------------------------------------

// BenchmarkInstrumentationOverhead prices the per-operator probes: the
// same supplier plan through the two entry points the service chooses
// between, RunGuarded and RunInstrumentedAdaptive.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := executor.RunGuarded(q, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		reg := obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			if _, _, err := executor.RunInstrumentedAdaptive(q, db, reg, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExplainAnalyzeReport measures the full EXPLAIN ANALYZE
// pipeline and surfaces its machine-readable dump as benchmark
// metrics: the JSON report, read back with json.Unmarshal, drives
// ReportMetric, so `go test
// -bench` prints actual cardinalities and optimizer counters next to
// the timings.
func BenchmarkExplainAnalyzeReport(b *testing.B) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	var data []byte
	for i := 0; i < b.N; i++ {
		rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		data, err = rep.JSON()
		if err != nil {
			b.Fatal(err)
		}
	}
	var rep AnalyzeReport
	if err := json.Unmarshal(data, &rep); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rep.RowsOut), "rows_out")
	b.ReportMetric(float64(rep.Considered), "plans")
	var residualEvals int64
	var walk func(t *plan.TreeNode)
	walk = func(t *plan.TreeNode) {
		if t.Actual != nil {
			residualEvals += t.Actual.Extra["residual_evals"]
		}
		for _, in := range t.Inputs {
			walk(in)
		}
	}
	walk(rep.PlanTree)
	b.ReportMetric(float64(residualEvals), "residual_evals")
	for _, p := range rep.Phases {
		if p.Name == "explore" {
			b.ReportMetric(float64(p.Ns), "explore_ns")
		}
	}
}

// BenchmarkObsPrimitives prices the registry's hot paths, the numbers
// that justify leaving the counters on in the default executor.
func BenchmarkObsPrimitives(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		reg := obs.NewRegistry()
		c := reg.Counter("bench.counter")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram", func(b *testing.B) {
		reg := obs.NewRegistry()
		h := reg.Histogram("bench.histogram")
		b.RunParallel(func(pb *testing.PB) {
			i := int64(0)
			for pb.Next() {
				i++
				h.Observe(i)
			}
		})
	})
	b.Run("registry-lookup", func(b *testing.B) {
		reg := obs.NewRegistry()
		reg.Counter("bench.lookup")
		for i := 0; i < b.N; i++ {
			reg.Counter("bench.lookup").Inc()
		}
	})
}

// --- ORDER BY through the service ------------------------------------

// BenchmarkServiceOrderBy times one cache-hit ORDER BY request through
// Service.Query per shape, over l and r physically sorted on k (10 000
// and 15 000 rows): a sorted scan, a join, a GROUP BY and a join under a
// GROUP BY, each ordered on the key.
func BenchmarkServiceOrderBy(b *testing.B) {
	db := Database{"l": orderedKV("l", 5000, 2), "r": orderedKV("r", 5000, 3)}
	svc, err := NewService(ServiceConfig{DB: db})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, s := range []struct{ name, sql string }{
		{"sorted_scan", "select l.k, l.v from l where l.v >= 0 order by l.k"},
		{"join", "select l.k, l.v, r.v as rv from l, r where l.k = r.k and l.v >= 3 order by l.k"},
		{"group_by", "select l.k, count(*) as n from l group by l.k order by l.k"},
		{"join_group_by", "select l.k, count(*) as n from l, r where l.k = r.k group by l.k order by l.k"},
	} {
		b.Run(s.name, func(b *testing.B) {
			if _, err := svc.Query(ctx, Request{SQL: s.sql}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Query(ctx, Request{SQL: s.sql}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHandlerHit serves the hit_point templates through Handler()
// on their 50-row chains, round-robin over the five shapes with the
// literal swept over 4..15: every request is a cache hit that binds,
// executes and encodes — the in-process figure of the hit_point
// workload's serving path.
func BenchmarkHandlerHit(b *testing.B) {
	benchHandlerHit(b, ServiceConfig{DB: shapeMemoDB()})
}

// BenchmarkHandlerHitFeedback is BenchmarkHandlerHit in feedback mode:
// every hit also runs instrumented and adaptive and folds its actuals
// into the feedback store.
func BenchmarkHandlerHitFeedback(b *testing.B) {
	benchHandlerHit(b, ServiceConfig{DB: shapeMemoDB(), Feedback: true})
}

func benchHandlerHit(b *testing.B, cfg ServiceConfig) {
	svc, err := NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := svc.Handler()
	var bodies [][]byte
	for _, sh := range hitPointShapes {
		for lit := 4; lit <= 15; lit++ {
			body, err := json.Marshal(Request{SQL: fmt.Sprintf(sh.text, lit)})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for _, body := range bodies {
		serve(body) // plans each template, builds the scans and indexes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
