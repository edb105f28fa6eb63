// EXPLAIN ANALYZE: optimize a query, execute the chosen plan through
// the instrumented executor, and bundle the annotated plan, optimizer
// counters and phase trace into one report that renders as text and
// round-trips through JSON (the machine-readable dump cmd/reorder
// -statsjson emits and the benchmarks consume).
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
	"repro/internal/stats/feedback"
)

// PhaseNs is one phase's wall time in the JSON report: queued (when a
// serving layer admitted the run), analyze (first-use ANALYZE of the
// scanned tables), then the optimizer's phases.
type PhaseNs struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// AnalyzeReport is the result of ExplainAnalyze: the chosen plan with
// per-operator actual-vs-estimated row counts and timings, the
// optimizer's enumeration counters and phase timings, and the
// aggregate metrics registry of the run.
type AnalyzeReport struct {
	Query        string  `json:"query"`    // the query as written (canonical plan string)
	BestPlan     string  `json:"bestPlan"` // the chosen plan (canonical plan string)
	Considered   int     `json:"considered"`
	OriginalCost float64 `json:"originalCost"`
	BestCost     float64 `json:"bestCost"`
	RowsOut      int     `json:"rowsOut"`
	Engine       string  `json:"engine,omitempty"`   // execution engine: always "vector" (kept so stored reports decode)
	Degraded     string  `json:"degraded,omitempty"` // non-empty when a budget trip truncated enumeration
	// Feedback provenance: how many estimates the optimizer took from
	// the cardinality-feedback store, this run's worst subtree
	// q-error, and whether the plan is a feedback-driven re-plan.
	FeedbackCorrections int     `json:"feedbackCorrections,omitempty"`
	MaxQError           float64 `json:"maxQError,omitempty"`
	Replanned           bool    `json:"replanned,omitempty"`
	// Order provenance (root ORDER BY only): the required order and
	// the enforcer sorts the plan carries for it.
	RequiredOrder string             `json:"requiredOrder,omitempty"`
	OrderEnforced int                `json:"orderEnforced,omitempty"`
	Phases        []PhaseNs          `json:"phases,omitempty"`
	RuleFirings   map[string]int     `json:"ruleFirings,omitempty"`
	Metrics       obs.Snapshot       `json:"metrics"`
	Spans         []obs.SpanSnapshot `json:"spans,omitempty"`
	PlanTree      json.RawMessage    `json:"planTree"` // annotated plan (plan.EncodeJSONAnnotated)

	node plan.Node
	ann  plan.Annotations
}

// AnalyzeOptions configure ExplainAnalyze. The zero value is a serial,
// unbudgeted, unobserved, single-pass run.
type AnalyzeOptions struct {
	// Workers spreads the optimizer's memo exploration over this many
	// goroutines (0 or 1 serial, < 0 GOMAXPROCS). The report is
	// identical for any worker count; only phase wall times change.
	Workers int
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
	// merges into Observer.Registry and one flight record — phase
	// timings, memo/guard counters, degradation and budget-trip flags,
	// per-operator estimated-vs-actual rows with q-errors — is
	// deposited in Observer.Flight. Failed runs are recorded too, with
	// the terminal error.
	Observer *Observer
	// Feedback is the one-shot feedback loop behind cmd/reorder's
	// -feedback flag: per-operator actual cardinalities are recorded
	// into a fresh feedback store under their memo groups' keys, joins
	// may swap build and probe sides mid-query, and — when the worst
	// operator q-error reaches ReplanQError — the query is re-optimized
	// with the corrected estimates and re-executed, returning the
	// re-planned report
	// (Replanned set, FeedbackCorrections counting the estimates the
	// second optimization took from the store). A query whose estimates
	// hold up returns the first report unchanged.
	Feedback bool
	// ReplanQError is Feedback's re-plan threshold (≤0 means 10).
	ReplanQError float64
}

// ExplainAnalyze optimizes q, executes the chosen plan instrumented on
// the columnar engine — the one the query service runs — and attaches
// estimated row counts from the same statistics the optimizer ranked
// with, making estimated-vs-actual cardinality errors visible per
// operator. Each run meters against a private registry and tracer (the
// report's Metrics snapshot is this run only), so concurrent callers
// do not mix metrics.
func ExplainAnalyze(ctx context.Context, q Node, db Database, o AnalyzeOptions) (*AnalyzeReport, error) {
	var fb *feedback.Store
	if o.Feedback {
		fb = feedback.New(feedback.Options{})
	}
	r, err := explainAnalyze(ctx, q, db, o, fb)
	if err != nil || !o.Feedback {
		return r, err
	}
	replanQ := o.ReplanQError
	if replanQ <= 0 {
		replanQ = 10
	}
	if r.MaxQError < replanQ {
		return r, nil
	}
	if r, err = explainAnalyze(ctx, q, db, o, fb); err != nil {
		return nil, err
	}
	r.Replanned = true
	return r, nil
}

// explainAnalyze is one optimize→execute pass. Each operator's
// estimate is the cardinality of the memo group the optimizer
// extracted it from. With a feedback store the optimizer consults it
// for corrected group estimates, joins may swap sides, and each
// composite operator's actual cardinality is recorded back into the
// store under its group's key.
func explainAnalyze(ctx context.Context, q Node, db Database, o AnalyzeOptions, fb *feedback.Store) (*AnalyzeReport, error) {
	reg := obs.NewRegistry()
	b := guard.New(ctx, o.Limits, reg)
	ob := o.Observer
	start := time.Now()
	tracer := obs.NewTracer()
	// ANALYZE every scanned table before optimizing, so its first-use
	// cost shows as its own phase instead of inside whichever optimizer
	// phase reads a table first.
	est := stats.ForDatabase(db)
	analyzeSpan := tracer.Start("analyze")
	analyzeStart := time.Now()
	plan.Walk(q, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			_, _ = est.Rows(s) // a relation missing from db fails Optimize below
		}
	})
	analyzeNs := time.Since(analyzeStart).Nanoseconds()
	analyzeSpan.End()
	opt := optimizer.New(est)
	opt.Opts.Obs = reg
	opt.Opts.Tracer = tracer
	opt.Opts.Workers = o.Workers
	opt.Opts.Budget = b
	opt.Opts.Feedback = fb
	res, err := opt.Optimize(q, db)
	if err != nil {
		ob.record(q, nil, nil, reg, b, start, 0, err, 0, nil)
		return nil, err
	}

	execSpan := tracer.Start("execute")
	execStart := time.Now()
	// The plan runs as planned, but MaxBytes pressure partitions a join
	// instead of tripping; under feedback a join may also swap sides.
	adapt := &executor.Adapt{Spill: true}
	if fb != nil {
		adapt.SwapFactor = 4
	}
	out, ann, err := executor.Exec(res.Best.Plan, db, executor.Options{Budget: b, Obs: reg, Adapt: adapt})
	execNs := time.Since(execStart).Nanoseconds()
	execSpan.End()
	if err != nil {
		ob.record(q, res.Best.Plan, res, reg, b, start, execNs, err, 0, nil)
		return nil, err
	}
	execSpan.Annotate("rows=%d", out.N)

	// Attach the optimizer's group estimates so every operator line
	// shows actual vs estimated cardinality, and fold each operator's
	// q-error into the per-op-type histograms. The flight OpStat rows
	// key by subtree fingerprint.
	var ops []flight.OpStat
	qerr := reg.HistogramVec("executor.qerror_milli", "op")
	maxQ := 1.0
	type obsRow struct {
		key         string
		est, actual float64
	}
	var corrections []obsRow
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		a := ann[n]
		if a == nil {
			return
		}
		est := res.Estimates[n]
		a.EstRows = est.Rows
		op := executor.OpName(n)
		qe := flight.QError(a.EstRows, a.Rows)
		qerr.With(op).Observe(int64(qe*1000 + 0.5))
		if est.Key != "" {
			if qe > maxQ {
				maxQ = qe
			}
			corrections = append(corrections, obsRow{key: est.Key, est: a.EstRows, actual: float64(a.Rows)})
		}
		ops = append(ops, flight.OpStat{
			Op:      op,
			Key:     plan.Key(n),
			EstRows: a.EstRows,
			Rows:    a.Rows,
			QError:  qe,
			Ns:      a.Elapsed.Nanoseconds(),
		})
	})
	// Record actuals only after every estimate above was computed: the
	// report must show what the optimizer believed going in, not the
	// post-hoc corrected figures.
	for _, c := range corrections {
		if err := fb.Record(c.key, c.est, c.actual); err != nil {
			return nil, err
		}
	}

	tree, err := plan.EncodeJSONAnnotated(res.Best.Plan, ann)
	if err != nil {
		return nil, err
	}
	r := &AnalyzeReport{
		Query:        q.String(),
		BestPlan:     res.Best.Plan.String(),
		Considered:   res.Considered,
		OriginalCost: res.Original.Cost,
		BestCost:     res.Best.Cost,
		RowsOut:      out.N,
		Engine:       "vector",
		Degraded:     res.Degraded,
		RuleFirings:  res.RuleFirings,
		Metrics:      reg.Snapshot(),
		Spans:        tracer.Snapshot(),
		PlanTree:     tree,
		node:         res.Best.Plan,
		ann:          ann,
	}
	if fb != nil {
		r.FeedbackCorrections = res.FeedbackCorrections
		r.MaxQError = maxQ
	}
	if res.Order != nil {
		r.RequiredOrder = res.Order.Required.String()
		r.OrderEnforced = res.Order.Enforced
	}
	// Queue wait, when a serving layer admitted this run, leads the
	// phase list: it is wall time the client experienced before any
	// optimizer work, and surfacing it is what makes shed decisions
	// explainable from a single report.
	if qw := b.QueueWait(); qw > 0 {
		r.Phases = append(r.Phases, PhaseNs{Name: "queued", Ns: qw.Nanoseconds()})
	}
	r.Phases = append(r.Phases, PhaseNs{Name: "analyze", Ns: analyzeNs})
	for _, p := range res.Phases {
		r.Phases = append(r.Phases, PhaseNs{Name: p.Name, Ns: p.Elapsed.Nanoseconds()})
	}
	ob.record(q, res.Best.Plan, res, reg, b, start, execNs, nil, out.N, ops)
	return r, nil
}

// JSON serializes the report; DecodeAnalyzeReport inverts it.
func (r *AnalyzeReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// DecodeAnalyzeReport deserializes a report produced by JSON,
// reconstructing the annotated plan tree for rendering.
func DecodeAnalyzeReport(data []byte) (*AnalyzeReport, error) {
	var r AnalyzeReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	node, ann, err := plan.DecodeJSONAnnotated(r.PlanTree)
	if err != nil {
		return nil, fmt.Errorf("reorder: decoding annotated plan: %w", err)
	}
	r.node, r.ann = node, ann
	return &r, nil
}

// Plan returns the chosen plan and its per-operator annotations.
func (r *AnalyzeReport) Plan() (Node, plan.Annotations) { return r.node, r.ann }

// String renders the report in the EXPLAIN ANALYZE style: header,
// annotated operator tree, phase timings and the run's counters.
func (r *AnalyzeReport) String() string {
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")
	fmt.Fprintf(&b, "plans considered: %d\n", r.Considered)
	fmt.Fprintf(&b, "original cost:    %.1f\n", r.OriginalCost)
	fmt.Fprintf(&b, "best cost:        %.1f\n", r.BestCost)
	fmt.Fprintf(&b, "rows returned:    %d\n", r.RowsOut)
	if r.Engine != "" {
		fmt.Fprintf(&b, "engine:           %s\n", r.Engine)
	}
	if r.Degraded != "" {
		fmt.Fprintf(&b, "degraded:         %s (best-effort plan, not the full-class optimum)\n", r.Degraded)
	}
	if r.FeedbackCorrections > 0 || r.Replanned {
		fmt.Fprintf(&b, "feedback:         corrected %d estimates", r.FeedbackCorrections)
		if r.Replanned {
			b.WriteString(" (replanned)")
		}
		b.WriteString("\n")
	}
	if r.RequiredOrder != "" {
		fmt.Fprintf(&b, "order:            required %s (enforced %d)\n", r.RequiredOrder, r.OrderEnforced)
	}
	if len(r.Phases) > 0 {
		parts := make([]string, len(r.Phases))
		for i, p := range r.Phases {
			parts[i] = fmt.Sprintf("%s %s", p.Name, time.Duration(p.Ns).Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "optimizer phases: %s\n", strings.Join(parts, ", "))
	}
	b.WriteString("\n")
	b.WriteString(buildField.Replace(plan.IndentAnnotated(r.node, r.ann)))
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

// Trace renders the span tree of the run (optimizer phases plus
// execution), the -trace output.
func (r *AnalyzeReport) Trace() string { return obs.RenderSpans(r.Spans) }
