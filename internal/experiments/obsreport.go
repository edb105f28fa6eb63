package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
)

// --- E15: observability — metrics, phase timings, EXPLAIN ANALYZE --

// E15 runs the Example 1.1 supplier query with a private metrics
// registry threaded through the optimizer and the instrumented
// executor, then prints the views the observability layer offers: the
// annotated plan (actual rows against the cardinality of the memo
// group each operator was extracted from, and per-operator timings),
// the optimizer's phase shares, and the aggregate counter snapshot.
// It is the write-up behind the CLI's -stats flag.
func E15() string {
	var b strings.Builder
	b.WriteString("E15 — observability: phase trace and EXPLAIN ANALYZE of the supplier query\n\n")

	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	reg := obs.NewRegistry()
	opt := optimizer.New(stats.NewEstimator(stats.FromDatabase(db)))
	opt.Opts.Obs = reg
	res, err := opt.Optimize(q, db)
	if err != nil {
		return err.Error()
	}
	out, ann, err := executor.Exec(res.Best.Plan, db, executor.Options{Obs: reg})
	if err != nil {
		return err.Error()
	}
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		if a := ann[n]; a != nil {
			a.EstRows = res.Estimates[n].Rows
		}
	})

	fmt.Fprintf(&b, "rows returned: %d   plans considered: %d\n\n", out.N, res.Considered)
	b.WriteString("annotated plan (actual vs estimated rows):\n")
	b.WriteString(plan.IndentAnnotated(res.Best.Plan, ann))

	// Where did the optimizer's time go, and how well did its
	// estimates hold up?
	if len(res.Phases) > 0 {
		var total time.Duration
		for _, p := range res.Phases {
			total += p.Elapsed
		}
		b.WriteString("\noptimizer phase shares:\n")
		for _, p := range res.Phases {
			share := 0.0
			if total > 0 {
				share = 100 * float64(p.Elapsed) / float64(total)
			}
			fmt.Fprintf(&b, "  %-10s %10s  %5.1f%%\n", p.Name, p.Elapsed.Round(time.Microsecond), share)
		}
	}
	worst := 1.0
	var worstNode plan.Node
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		a := ann[n]
		if a == nil || a.EstRows <= 0 || a.Rows == 0 {
			return
		}
		q := float64(a.Rows) / a.EstRows
		if q < 1 {
			q = 1 / q
		}
		if q > worst {
			worst, worstNode = q, n
		}
	})
	if worstNode != nil {
		fmt.Fprintf(&b, "\nworst cardinality estimate: %.1fx off at %s\n", worst, worstNode)
	}

	snap := reg.Snapshot()
	b.WriteString("\nselected counters:\n")
	keys := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		if strings.HasPrefix(k, "optimizer.rule_admitted.") ||
			k == "memo.dedup_hits" || k == "memo.exprs" ||
			strings.HasPrefix(k, "executor.") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-44s %d\n", k, snap.Counters[k])
	}
	return b.String()
}
