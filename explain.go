// EXPLAIN ANALYZE: optimize a query, execute the chosen plan through
// the instrumented executor, and bundle the annotated plan, optimizer
// counters and phase timings into one report that renders as text or
// serializes as JSON (the machine-readable dump cmd/reorder -statsjson
// emits; an output format, read back with json.Unmarshal).
package reorder

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/executor"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/stats"
)

// AnalyzeReport is the result of ExplainAnalyze: the chosen plan with
// per-operator actual-vs-estimated row counts and timings, the
// optimizer's enumeration counters, the run's phase timings and the
// aggregate metrics registry of the run.
type AnalyzeReport struct {
	Query        string  `json:"query"`    // the query as written (canonical plan string)
	BestPlan     string  `json:"bestPlan"` // the chosen plan (canonical plan string)
	Considered   int     `json:"considered"`
	OriginalCost float64 `json:"originalCost"`
	BestCost     float64 `json:"bestCost"`
	RowsOut      int     `json:"rowsOut"`
	Degraded     string  `json:"degraded,omitempty"` // non-empty when a cap truncated enumeration
	// Order provenance (root ORDER BY only): the required order and
	// the enforcer sorts the plan carries for it.
	RequiredOrder string `json:"requiredOrder,omitempty"`
	OrderEnforced int    `json:"orderEnforced,omitempty"`
	// Phases are the run's wall times in order: analyze (first-use
	// ANALYZE of the scanned tables), the optimizer's simplify,
	// explore and cost, then execute. The flight record of an observed
	// run carries the same list.
	Phases      []flight.Phase `json:"phases,omitempty"`
	RuleFirings map[string]int `json:"ruleFirings,omitempty"`
	Metrics     obs.Snapshot   `json:"metrics"`
	PlanTree    *plan.TreeNode `json:"planTree"` // annotated plan (plan.Tree)

	node plan.Node
	ann  plan.Annotations
}

// AnalyzeOptions configure ExplainAnalyze. The zero value is a serial,
// unbudgeted, unobserved run.
type AnalyzeOptions struct {
	// Limits bound the run together with ctx: the optimization degrades
	// gracefully on an exprs trip (see AnalyzeReport.Degraded), the
	// execution aborts with a guard error on a rows trip, and a join
	// whose build side cannot fit MaxBytes joins partition by
	// partition, one partition's build table at a time, instead of
	// tripping. MaxBytes caps the modelled footprint (32 bytes a value),
	// not the process's memory. Guard counters land in the report's
	// private registry.
	Limits Limits
	// Observer, when non-nil, receives the run: its private registry
	// merges into Observer.Registry and one flight record — the
	// report's phases, memo/guard counters, degradation and budget-trip
	// flags, per-operator estimated-vs-actual rows with q-errors — is
	// deposited in Observer.Flight. Failed runs are recorded too, with
	// the terminal error.
	Observer *Observer
}

// ExplainAnalyze optimizes q, executes the chosen plan instrumented on
// the columnar engine — the one the query service runs — and attaches
// to every operator the cardinality of the memo group the optimizer
// extracted it from, making estimated-vs-actual cardinality errors
// visible per operator. Each run meters against a private registry
// (the report's Metrics snapshot is this run only), so concurrent
// callers do not mix metrics.
func ExplainAnalyze(ctx context.Context, q Node, db Database, o AnalyzeOptions) (*AnalyzeReport, error) {
	reg := obs.NewRegistry()
	b := guard.New(ctx, o.Limits, reg)
	rec := flight.Record{Start: time.Now()}
	r, err := explainAnalyze(q, db, b, reg, &rec)
	if o.Observer != nil {
		rec.Query, rec.Hash = plan.Key(q), plan.Fingerprint(q)
		o.Observer.record(rec, reg, b, err)
	}
	return r, err
}

// explainAnalyze is ExplainAnalyze's one optimize→execute pass. It
// fills rec's plan, phase, row and operator fields as the run reaches
// them, so the record of a failed run shows how far it got.
func explainAnalyze(q Node, db Database, b *guard.Budget, reg *obs.Registry, rec *flight.Record) (*AnalyzeReport, error) {
	phase := func(name string, start time.Time) {
		rec.Phases = append(rec.Phases, flight.Phase{Name: name, Ns: time.Since(start).Nanoseconds()})
	}
	// ANALYZE every scanned table before optimizing, so its first-use
	// cost shows as its own phase instead of inside whichever optimizer
	// phase reads a table first.
	est := stats.ForDatabase(db)
	start := time.Now()
	plan.Walk(q, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			_, _ = est.Rows(s) // a relation missing from db fails Optimize below
		}
	})
	phase("analyze", start)
	opt := optimizer.New(est)
	opt.Opts.Obs = reg
	opt.Opts.Budget = b
	res, err := opt.Optimize(q, db)
	if err != nil {
		return nil, err
	}
	rec.PlanKey = plan.Key(res.Best.Plan)
	rec.Degraded = res.Degraded
	for _, p := range res.Phases {
		rec.Phases = append(rec.Phases, flight.Phase{Name: p.Name, Ns: p.Elapsed.Nanoseconds()})
	}

	// The plan runs as planned, but MaxBytes pressure partitions a join
	// instead of tripping.
	start = time.Now()
	out, ann, err := executor.Exec(res.Best.Plan, db, executor.Options{Budget: b, Obs: reg, Adapt: &executor.Adapt{Spill: true}})
	phase("execute", start)
	if err != nil {
		return nil, err
	}
	rec.RowsOut = out.N

	// Attach the optimizer's group estimates so every operator line
	// shows actual vs estimated cardinality, and fold each operator's
	// q-error into the per-op-type histograms and the flight record.
	qerr := reg.HistogramVec("executor.qerror_milli", "op")
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		a := ann[n]
		if a == nil {
			return
		}
		a.EstRows = res.Estimates[n].Rows
		op := executor.OpName(n)
		qe := observeQError(qerr, op, a.EstRows, a.Rows)
		rec.Ops = append(rec.Ops, flight.OpStat{
			Op:      op,
			Key:     plan.Key(n),
			EstRows: a.EstRows,
			Rows:    a.Rows,
			QError:  qe,
			Ns:      a.Elapsed.Nanoseconds(),
		})
	})

	r := &AnalyzeReport{
		Query:        q.String(),
		BestPlan:     res.Best.Plan.String(),
		Considered:   res.Considered,
		OriginalCost: res.Original.Cost,
		BestCost:     res.Best.Cost,
		RowsOut:      out.N,
		Degraded:     res.Degraded,
		Phases:       rec.Phases,
		RuleFirings:  res.RuleFirings,
		Metrics:      reg.Snapshot(),
		PlanTree:     plan.Tree(res.Best.Plan, ann),
		node:         res.Best.Plan,
		ann:          ann,
	}
	if res.Order != nil {
		r.RequiredOrder = res.Order.Required.String()
		r.OrderEnforced = res.Order.Enforced
	}
	return r, nil
}

// JSON serializes the report.
func (r *AnalyzeReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Plan returns the chosen plan and its per-operator annotations. A
// report read back from JSON has neither: its plan is PlanTree.
func (r *AnalyzeReport) Plan() (Node, plan.Annotations) { return r.node, r.ann }

// String renders the report ExplainAnalyze built in the EXPLAIN
// ANALYZE style: header, annotated operator tree, phase timings and the
// run's counters.
func (r *AnalyzeReport) String() string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	fmt.Fprintf(&b, "plans considered: %d\n", r.Considered)
	fmt.Fprintf(&b, "original cost:    %.1f\n", r.OriginalCost)
	fmt.Fprintf(&b, "best cost:        %.1f\n", r.BestCost)
	fmt.Fprintf(&b, "rows returned:    %d\n", r.RowsOut)
	if r.Degraded != "" {
		fmt.Fprintf(&b, "degraded:         %s (best-effort plan, not the full-class optimum)\n", r.Degraded)
	}
	if r.RequiredOrder != "" {
		fmt.Fprintf(&b, "order:            required %s (enforced %d)\n", r.RequiredOrder, r.OrderEnforced)
	}
	if len(r.Phases) > 0 {
		parts := make([]string, len(r.Phases))
		for i, p := range r.Phases {
			parts[i] = fmt.Sprintf("%s %s", p.Name, time.Duration(p.Ns).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "phases:           %s\n", strings.Join(parts, ", "))
	}
	b.WriteString("\n")
	if r.node != nil {
		b.WriteString(buildField.Replace(plan.IndentAnnotated(r.node, r.ann)))
	}
	b.WriteString("\ncounters:\n")
	b.WriteString(r.Metrics.String())
	return b.String()
}

// buildField spells a columnar join's build_index and dense_lookup
// annotations the way they read: build=index when the table was the
// build side's shared join index, build=hash when it was built for this
// request; lookup=dense when probe rows found their build rows by key −
// min, lookup=hash when through key hashes.
var buildField = strings.NewReplacer(" build_index=1", " build=index", " build_index=0", " build=hash",
	" dense_lookup=1", " lookup=dense", " dense_lookup=0", " lookup=hash")
