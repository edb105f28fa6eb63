// Command reorder optimizes a SQL query against the built-in
// Example 1.1 supplier workload (or a chain database) and prints the
// hypergraph, the plan space and the chosen plan.
//
// Usage:
//
//	reorder -query "select ... from ..."          # optimize a query
//	reorder -demo supplier                        # run the Example 1.1 demo
//	reorder -demo supplier -stats                 # EXPLAIN ANALYZE the demo query
//	reorder -demo q4                              # show Figure 1's hypergraph & trees
//
// -stats executes the chosen plan instrumented on the columnar engine
// (the one -rows and the query service run on) and prints an EXPLAIN
// ANALYZE report: per-operator actual vs estimated rows and timings,
// the wall time of each phase (analyze, simplify, explore, cost,
// execute) and rule firing counters; -statsjson dumps the whole report
// as machine-readable JSON.
//
// The tool is deliberately self-contained: the workload is generated
// in memory, so every invocation is reproducible.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	reorder "repro"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/guard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags; run threads them through
// the demo and query paths.
type options struct {
	query         string
	dataDir       string
	demo          string
	baseline      bool
	rows          bool
	dot           bool
	stats         bool
	statsJSON     bool
	timeout       time.Duration
	maxExprs      int64
	maxRows       int64
	maxBytes      int64
	metricsAddr   string
	metricsLinger time.Duration

	// obs is the run's observer, non-nil when -metrics-addr is set;
	// analyze folds its run into it.
	obs *reorder.Observer
}

// wantAnalyze: -metrics-addr implies an instrumented run — the
// aggregate registry and flight recorder are only populated by one.
func (o options) wantAnalyze() bool {
	return o.stats || o.statsJSON || o.metricsAddr != ""
}

func (o options) limits() reorder.Limits {
	return reorder.Limits{MaxExprs: o.maxExprs, MaxRows: o.maxRows, MaxBytes: o.maxBytes}
}

// context returns the run's context, bounded by -timeout when set.
func (o options) context() (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.Background(), func() {}
}

// Exit codes: 0 success (including graceful degradation), 2 usage and
// parse/plan errors, 3 resource-governance aborts (timeout,
// cancellation, budget trips), 1 any other runtime failure.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitGuard   = 3
)

// exitFor classifies an error into the command's exit code.
func exitFor(err error) int {
	if guard.IsCancelled(err) || guard.IsBudget(err) {
		return exitGuard
	}
	return exitRuntime
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reorder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.query, "query", "", "SQL query to optimize against the supplier workload")
	fs.StringVar(&o.dataDir, "data", "", "directory of .csv files to use as the database instead of the supplier workload")
	fs.StringVar(&o.demo, "demo", "", "built-in demo: supplier | q4 | query2")
	fs.BoolVar(&o.baseline, "baseline", false, "also show the pre-paper baseline optimizer's choice")
	fs.BoolVar(&o.rows, "rows", false, "execute the chosen plan and print its result")
	fs.BoolVar(&o.dot, "dot", false, "emit the chosen plan as Graphviz DOT instead of text")
	fs.BoolVar(&o.stats, "stats", false, "execute instrumented and print an EXPLAIN ANALYZE report")
	fs.BoolVar(&o.statsJSON, "statsjson", false, "dump the EXPLAIN ANALYZE report as JSON")
	fs.DurationVar(&o.timeout, "timeout", 0, "wall-clock budget for the whole run (0 = unlimited); exceeding it exits 3")
	fs.Int64Var(&o.maxExprs, "max-exprs", 0, "cap on enumerated plan expressions (0 = unlimited); tripping it degrades to a best-effort plan, exit 0")
	fs.Int64Var(&o.maxRows, "max-rows", 0, "cap on intermediate rows during execution (0 = unlimited); tripping it exits 3")
	fs.Int64Var(&o.maxBytes, "max-bytes", 0, "cap on modeled intermediate bytes during execution (0 = unlimited); a join whose build side does not fit is partitioned in memory, and an overrun that partitioning cannot avoid exits 3")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text) and /debug/queries (flight JSON) on this address during the run; implies an instrumented run")
	fs.DurationVar(&o.metricsLinger, "metrics-linger", 0, "keep the metrics server up this long after the run finishes (0 = close immediately)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: reorder -query <sql> | -demo <supplier|q4|query2> [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if o.metricsAddr != "" {
		o.obs = reorder.NewObserver(0)
		srv, err := serveObs(o.metricsAddr, o.obs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitRuntime
		}
		fmt.Fprintf(stderr, "metrics: serving on http://%s/metrics\n", srv.Addr())
		defer srv.CloseAfter(o.metricsLinger)
	}

	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	if o.dataDir != "" {
		loaded, err := reorder.LoadCSVDir(o.dataDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitRuntime
		}
		db = loaded
	}

	if o.demo != "" {
		return runDemo(o, db, stdout, stderr)
	}
	if o.query == "" {
		fmt.Fprintln(stderr, "reorder: provide -query or -demo (supplier | q4 | query2)")
		fs.Usage()
		return exitUsage
	}

	node, err := reorder.Parse(o.query, db)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitUsage
	}
	fmt.Fprintln(stdout, "query plan as written:")
	fmt.Fprintln(stdout, reorder.ExplainPlan(node))

	ctx, cancel := o.context()
	defer cancel()
	res, err := reorder.Optimize(ctx, node, db, reorder.Options{Limits: o.limits()})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFor(err)
	}
	fmt.Fprintln(stdout, reorder.Explain(res))

	if o.baseline {
		base, err := reorder.Optimize(ctx, node, db, reorder.Options{Limits: o.limits(), Baseline: true})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFor(err)
		}
		fmt.Fprintf(stdout, "baseline (no generalized selection): %d plans, best cost %.1f\n",
			base.Considered, base.Best.Cost)
	}
	if o.dot {
		fmt.Fprintln(stdout, reorder.PlanDOT(res.Best.Plan))
	}
	if o.rows {
		out, err := reorder.Execute(ctx, res.Best.Plan, db, o.limits())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitFor(err)
		}
		out.SortForDisplay()
		fmt.Fprintln(stdout, out)
	}
	if o.wantAnalyze() {
		return analyze(ctx, node, db, o, stdout, stderr)
	}
	return exitOK
}

// runDemo dispatches a named demo. Without analysis flags it prints
// the matching experiment write-up; with them it runs the demo's
// query through ExplainAnalyze on the demo's database.
func runDemo(o options, db reorder.Database, stdout, stderr io.Writer) int {
	var ids []string
	var node reorder.Node
	switch o.demo {
	case "q4":
		ids = []string{"e2", "e3"}
	case "query2":
		ids = []string{"e9"}
		node = experiments.Query2()
		db = query2DB()
	case "supplier":
		ids = []string{"e7"}
		node = datagen.SupplierQuery()
		if o.dataDir == "" {
			db = datagen.Supplier(datagen.DefaultSupplierConfig)
		}
	default:
		fmt.Fprintf(stderr, "reorder: unknown demo %q (have supplier, q4, query2)\n", o.demo)
		return exitUsage
	}
	if o.wantAnalyze() {
		if node == nil {
			fmt.Fprintf(stderr, "reorder: demo %q has no executable database; -stats/-statsjson need supplier or query2\n", o.demo)
			return exitUsage
		}
		ctx, cancel := o.context()
		defer cancel()
		return analyze(ctx, node, db, o, stdout, stderr)
	}
	for _, id := range ids {
		out, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitRuntime
		}
		fmt.Fprintln(stdout, out)
	}
	return exitOK
}

// obsServer is the -metrics-addr HTTP server: the observer's handler
// on a plain listener, shut down (optionally after a linger window,
// so one-shot CLI runs can still be scraped) when the run ends.
type obsServer struct {
	ln  net.Listener
	srv *http.Server
}

// serveObs starts serving ob on addr (":0" picks a free port).
func serveObs(addr string, ob *reorder.Observer) (*obsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("reorder: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: ob.Handler()}
	go srv.Serve(ln)
	return &obsServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (with the resolved port).
func (s *obsServer) Addr() string { return s.ln.Addr().String() }

// CloseAfter keeps serving for the linger window, then shuts down.
func (s *obsServer) CloseAfter(linger time.Duration) {
	if linger > 0 {
		time.Sleep(linger)
	}
	s.srv.Close()
}

// query2DB is the skewed three-relation database experiment E9 uses
// for Query 2.
func query2DB() reorder.Database {
	rng := rand.New(rand.NewSource(9))
	return reorder.Database{
		"r1": datagen.Uniform(rng, "r1", datagen.UniformConfig{Rows: 2000, Domain: 40}),
		"r2": datagen.Uniform(rng, "r2", datagen.UniformConfig{Rows: 100, Domain: 40}),
		"r3": datagen.Uniform(rng, "r3", datagen.UniformConfig{Rows: 100, Domain: 40}),
	}
}

// analyze optimizes node, executes it instrumented under the run's
// budget and prints the requested views of the report.
func analyze(ctx context.Context, node reorder.Node, db reorder.Database, o options, stdout, stderr io.Writer) int {
	rep, err := reorder.ExplainAnalyze(ctx, node, db, reorder.AnalyzeOptions{
		Limits: o.limits(), Observer: o.obs,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitFor(err)
	}
	if o.stats {
		fmt.Fprintln(stdout, rep.String())
	}
	if o.statsJSON {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitRuntime
		}
		stdout.Write(data)
		fmt.Fprintln(stdout)
	}
	return exitOK
}
