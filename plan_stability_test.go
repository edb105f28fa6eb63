// Plan-stability golden test: the benchmark's template shapes,
// optimized exactly as Service.serve does on a cache miss (parse,
// parameterize, lower, optimizer.New(est.WithParams(params)).Optimize,
// so the estimator sees the literals), must keep the winners recorded
// in testdata/plan_stability.json. The SQL is copied from
// bench/workloads.go as literals so this file neither imports nor
// edits bench/; a constant stands in for each %d.
//
// Regenerate with `go test -run TestPlanStability -update-plan-golden .`
// only when a plan change is intended, and say why in CHANGES.md.
package reorder

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/memo"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
)

var updatePlanGolden = flag.Bool("update-plan-golden", false, "rewrite testdata/plan_stability.json from this build's winners")

const planGoldenPath = "testdata/plan_stability.json"

// planGolden is one recorded winner.
type planGolden struct {
	Cost float64 `json:"cost"`
	Key  string  `json:"key"`
}

// stabilityCase is one template against the database its workload
// serves it on.
type stabilityCase struct {
	name string
	db   string
	sql  string
}

const stabilitySeed = 1996 // bench's dataSeed

func stabilityChain(n, rows, domain int) Database {
	return datagen.Chain(n, datagen.UniformConfig{Rows: rows, Domain: domain, NullFrac: 0.05}, stabilitySeed)
}

func stabilitySupplier() Database {
	cfg := datagen.DefaultSupplierConfig
	cfg.AggRows, cfg.DetailRows, cfg.Seed = 2000, 150000, stabilitySeed
	return datagen.Supplier(cfg)
}

func stabilitySkew() Database { return skewScaled(4) }

// skewScaled is datagen.DefaultSkewConfig with every table divided by
// denom, scaled as the benchmark scales it (denom 4 is its data).
func skewScaled(denom int) Database {
	cfg := datagen.DefaultSkewConfig
	cfg.FactRows /= denom
	cfg.DimRows /= denom
	cfg.TagRows /= denom
	cfg.JoinDomain = cfg.DimRows / 40
	cfg.ADomain = cfg.DimRows / 40
	cfg.Seed = stabilitySeed
	return datagen.Skewed(cfg)
}

func mergeDBs(dbs ...Database) Database {
	out := Database{}
	for _, db := range dbs {
		for name, rel := range db {
			out[name] = rel
		}
	}
	return out
}

// stabilityDBs builds the four workload databases at benchmark scale.
func stabilityDBs() map[string]Database {
	return map[string]Database{
		"hit_point":      mergeDBs(stabilityChain(7, 50, 50), stabilitySupplier()),
		"hit_scan":       mergeDBs(stabilitySupplier(), stabilitySkew(), stabilityChain(4, 15000, 15000)),
		"cold_plan":      stabilityChain(7, 300, 150),
		"churn_feedback": mergeDBs(stabilityChain(7, 300, 150), stabilitySkew()),
	}
}

const stabilitySkewQuery = "select fact.k, count(*) as n from fact, d1, d2 " +
	"where fact.j = d1.j and d1.a = d2.a and fact.k = 0 and fact.v = 0 and d2.tag = 2 group by fact.k"

var stabilityCases = []stabilityCase{
	{"hit_point/inner5", "hit_point", "select r1.x, r5.y from r1, r2, r3, r4, r5 " +
		"where r1.x = r2.x and r2.y = r3.y and r3.x = r4.x and r4.y = r5.y and r1.y < 7"},
	{"hit_point/loj5_complex", "hit_point", "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x and r4.y >= r1.y left join r5 on r4.y = r5.y where r1.y < 7"},
	{"hit_point/mix4_groupby", "hit_point", "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x where r1.x < 7 group by r1.y"},
	{"hit_point/corr_count", "hit_point", "select r1.x from r1 where r1.y < 7 and r1.x >= (select count(*) from r2 where r2.y = r1.y)"},
	{"hit_point/loj3_groupby", "hit_point", "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"where r1.x >= 33 group by r1.y"},

	{"hit_scan/supplier", "hit_scan", "select v2.supkey as supkey, v2.partkey as partkey, v2.qty as qty, v3.aggqty95 as aggqty95 " +
		"from (select agg94.supkey as supkey, agg94.partkey as partkey, agg94.qty as qty " +
		"from agg94, sup_detail where agg94.supkey = sup_detail.supkey and sup_detail.suprating = 'BANKRUPT') as v2 " +
		"left outer join (select supkey, partkey, count(*) as aggqty95 from detail95 group by supkey, partkey) as v3 " +
		"on v2.supkey = v3.supkey and v2.partkey = v3.partkey and v2.qty < 2 * v3.aggqty95"},
	{"hit_scan/skew_groupby", "hit_scan", stabilitySkewQuery},
	{"hit_scan/loj3_groupby", "hit_scan", "select r1.y, count(*) as n from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"where r1.x >= 3 group by r1.y"},
	{"hit_scan/mix3_wide", "hit_scan", "select r1.x as a, r2.y as b, r3.x as c from r1 join r2 on r1.x = r2.x " +
		"left join r3 on r2.y = r3.y where r1.y < 3001"},
	{"hit_scan/inner3_groupby", "hit_scan", "select r2.y, count(*) as n from r1, r2, r3 where r1.x = r2.x and r2.y = r3.y " +
		"and r1.y < 9001 group by r2.y"},

	{"cold_plan/loj5_complex", "cold_plan", "select r1.x, r5.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y and r3.x >= r1.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y and r5.x >= r1.y where r1.y = 7"},
	{"cold_plan/inner4_loj", "cold_plan", "select r1.y, r5.x from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y join r4 on r3.x = r4.x " +
		"left join r5 on r4.y = r5.y where r1.x = 7"},
	{"cold_plan/star4_complex", "cold_plan", "select r1.x, r4.y from r1, r2, r3, r4 " +
		"where r1.x = r2.x and r1.y = r3.y and r1.x = r4.x and r2.y < r3.x + r4.y and r1.y = 7"},
	{"cold_plan/loj6", "cold_plan", "select r1.x, r6.y from r1 left join r2 on r1.x = r2.x left join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y left join r6 on r5.x = r6.x where r1.y = 7"},
	{"cold_plan/mix5_groupby", "cold_plan", "select r1.y, count(*) as n from r1 join r2 on r1.x = r2.x join r3 on r2.y = r3.y " +
		"left join r4 on r3.x = r4.x left join r5 on r4.y = r5.y where r1.x = 7 group by r1.y"},
	// The chain6 probe of the traced pass.
	{"cold_plan/chain6_probe", "cold_plan", "select r1.x from r1, r2, r3, r4, r5, r6 " +
		"where r1.x = r2.x and r2.x = r3.x and r3.y = r4.y and r4.x = r5.x and r5.y = r6.y and r1.y = 3 and r6.x = 4"},

	// The first four members of the churn LOJ-chain family
	// (rand.NewSource(1996), Perm(7)[:4]).
	{"churn_feedback/loj_7653", "churn_feedback", "select r7.x as a, r3.y as b from r7 left join r6 on r7.x = r6.x " +
		"left join r5 on r6.y = r5.y left join r3 on r5.x = r3.x where r7.y = 1"},
	{"churn_feedback/loj_7345", "churn_feedback", "select r7.x as a, r5.y as b from r7 left join r3 on r7.x = r3.x " +
		"left join r4 on r3.y = r4.y left join r5 on r4.x = r5.x where r7.y = 1"},
	{"churn_feedback/loj_4763", "churn_feedback", "select r4.x as a, r3.y as b from r4 left join r7 on r4.x = r7.x " +
		"left join r6 on r7.y = r6.y left join r3 on r6.x = r3.x where r4.y = 1"},
	{"churn_feedback/loj_7241", "churn_feedback", "select r7.x as a, r1.y as b from r7 left join r2 on r7.x = r2.x " +
		"left join r4 on r2.y = r4.y left join r1 on r4.x = r1.x where r7.y = 1"},
}

// stabilityTies lists cases whose winner may differ from the golden
// key at exactly the golden cost, with the reason.
var stabilityTies = map[string]string{}

func TestPlanStability(t *testing.T) {
	dbs := stabilityDBs()
	ests := make(map[string]*stats.Estimator, len(dbs))
	for name, db := range dbs {
		ests[name] = stats.ForDatabase(db)
	}
	got := make(map[string]planGolden, len(stabilityCases))
	for _, tc := range stabilityCases {
		stmt, err := sql.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		tmpl, params := sql.Parameterize(stmt)
		node, err := sql.Lower(tmpl, dbs[tc.db])
		if err != nil {
			t.Fatalf("%s: lower: %v", tc.name, err)
		}
		res, err := optimizer.New(ests[tc.db].WithParams(params)).Optimize(node, dbs[tc.db])
		if err != nil {
			t.Fatalf("%s: optimize: %v", tc.name, err)
		}
		got[tc.name] = planGolden{Cost: res.Best.Cost, Key: plan.Key(res.Best.Plan)}
	}
	if *updatePlanGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(planGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-plan-golden): %v", err)
	}
	var want map[string]planGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(stabilityCases) {
		t.Fatalf("golden has %d cases, test has %d", len(want), len(stabilityCases))
	}
	for _, tc := range stabilityCases {
		w, g := want[tc.name], got[tc.name]
		if math.Abs(g.Cost-w.Cost) > 1e-9*math.Abs(w.Cost) {
			t.Errorf("%s: best cost %.9g, golden %.9g\n got  %s\n want %s", tc.name, g.Cost, w.Cost, g.Key, w.Key)
			continue
		}
		if g.Key != w.Key {
			if why, ok := stabilityTies[tc.name]; ok {
				t.Logf("%s: cost tie accepted (%s)", tc.name, why)
				continue
			}
			t.Errorf("%s: winner changed at equal cost %.9g\n got  %s\n want %s", tc.name, g.Cost, g.Key, w.Key)
		}
	}
}

// TestChain6ProbeReportsCap: the chain6 probe stops at the default
// MaxPlans cap, and both the optimizer result and a bypass service
// request say so.
func TestChain6ProbeReportsCap(t *testing.T) {
	var probe stabilityCase
	for _, tc := range stabilityCases {
		if tc.name == "cold_plan/chain6_probe" {
			probe = tc
		}
	}
	db := stabilityDBs()[probe.db]
	stmt, err := sql.Parse(probe.sql)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, params := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.New(stats.ForDatabase(db).WithParams(params)).Optimize(node, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != memo.CappedMaxExprs {
		t.Errorf("Optimize: Degraded = %q after %d expressions, want %q", res.Degraded, res.Considered, memo.CappedMaxExprs)
	}
	svc := newTestService(t, ServiceConfig{DB: db})
	resp, err := svc.Query(context.Background(), Request{SQL: probe.sql, Cache: "bypass"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != memo.CappedMaxExprs {
		t.Errorf("Service.Query: Degraded = %q, want %q", resp.Degraded, memo.CappedMaxExprs)
	}
}
