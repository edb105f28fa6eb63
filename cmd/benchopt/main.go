// Command benchopt is the optimizer's benchmark harness: it runs the
// saturation, memo-exploration and costing workloads through
// testing.Benchmark, compares the serial engine against the parallel
// one, the memo engine against saturation, and the memoized cost
// session against cold estimation, writes the numbers to
// BENCH_optimizer.json, and exits non-zero if the parallel engine is
// slower than the serial one — or the memo engine slower than
// saturation — on the canned workloads; these are the regression
// gates make bench enforces.
//
// Usage:
//
//	benchopt [-out BENCH_optimizer.json] [-tolerance 1.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/benchgate"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/stats"
	"repro/internal/value"
)

// report is the BENCH_optimizer.json schema.
type report struct {
	benchgate.Header
	// SpeedupQ5Serial is seed SaturateQ5 ms / current serial ms.
	SpeedupQ5Serial float64 `json:"speedupQ5Serial"`
	// SpeedupQ5Parallel is seed SaturateQ5 ms / current parallel ms
	// (workers = GOMAXPROCS).
	SpeedupQ5Parallel float64 `json:"speedupQ5Parallel"`
	// SpeedupCostMemo is cold estimator ms / memoized session ms on
	// the Q5 closure costing pass.
	SpeedupCostMemo float64 `json:"speedupCostMemo"`
	// SpeedupMemoQ5 is the full-optimization saturation ms / memo
	// engine ms on Q5 (enumerate + cost + pick best, end to end).
	SpeedupMemoQ5 float64 `json:"speedupMemoQ5"`
	// SpeedupMemoChain7 is the same ratio on the 7-relation chain,
	// where both engines hit the 10000 cap.
	SpeedupMemoChain7 float64 `json:"speedupMemoChain7"`
	// MemoPrunedQ5 is the memo.pruned counter from one memo-engine Q5
	// optimization: extraction candidates discarded by branch-and-bound
	// before full costing.
	MemoPrunedQ5 int64 `json:"memoPrunedQ5"`
	// GuardOverheadQ5 and GuardOverheadChain7 are the guarded /
	// unguarded time ratios on the memo-engine optimizations: the cost
	// of threading an untripped budget (cancellation + expression
	// accounting at every wave boundary) through the whole run.
	GuardOverheadQ5     float64 `json:"guardOverheadQ5"`
	GuardOverheadChain7 float64 `json:"guardOverheadChain7"`
	// ObsOverheadQ5 is the observed / plain time ratio on the memo-engine
	// Q5 optimization: the cost of metering against a private registry,
	// merging it into the process aggregate and depositing a flight
	// record — the full observability pipeline.
	ObsOverheadQ5 float64 `json:"obsOverheadQ5"`
	// SpeedupOrderMerge is the end-to-end execution time of the forced
	// hash-join-plus-root-sort plan divided by the optimizer-picked
	// merge plan on the sorted-input order workload — the tentpole's
	// ≥2x gate. SpeedupOrderStreamAgg is the same ratio for streaming
	// aggregation vs hash aggregation plus a root sort.
	SpeedupOrderMerge     float64 `json:"speedupOrderMerge"`
	SpeedupOrderStreamAgg float64 `json:"speedupOrderStreamAgg"`
	// OrderEnforcedSorts counts enforcer Sort nodes across both
	// order-workload winners; the redundant-sort-elimination assertion
	// requires it to be zero.
	OrderEnforcedSorts int `json:"orderEnforcedSorts"`
	// CounterDeltas maps workload name → the default-registry counter
	// movement (obs.Snapshot.Diff) across that workload's measurement.
	CounterDeltas map[string]map[string]int64 `json:"counterDeltas,omitempty"`
}

// Seed numbers measured at the pre-change commit on this container
// (GOMAXPROCS=1, Intel Xeon 2.10GHz); see BENCH_optimizer.json
// history.
var seeds = []benchgate.SeedBaseline{
	{Name: "SaturateQ5", MsPerOp: 204.7, BytesPerOp: 57400000, AllocsPerOp: 1485045,
		Note: "serial saturation of Q5 (closure 2752 plans, cap 10000), pre-fingerprint"},
	{Name: "SaturateChain7", MsPerOp: 609.7, BytesPerOp: 172300000, AllocsPerOp: 4191999,
		Note: "serial saturation of the 7-relation chain, hits the 10000-plan cap"},
	{Name: "CostClosure", MsPerOp: 11.79, BytesPerOp: 1600000, AllocsPerOp: 96672,
		Note: "PlanCost+Rows over all 2752 Q5 closure members, no memo"},
	// The order-workload seeds are the forced pre-order-aware plans —
	// hash join / hash aggregation with a root sort bolted on — which
	// is the best spelling the optimizer could produce before physical
	// sort properties existed. The gates require the order-aware
	// winners to beat them (merge by ≥2x, the tentpole floor).
	{Name: "OrderExecJoin", MsPerOp: 129.67, BytesPerOp: 86241240, AllocsPerOp: 240826,
		Note: "hash join s1⋈s2 (60k×120k sorted string keys, fan-out 2) + root sort of 120k rows"},
	{Name: "OrderExecAgg", MsPerOp: 120.10, BytesPerOp: 64790019, AllocsPerOp: 480602,
		Note: "hash GROUP BY k over s1 (60k sorted string keys) + root sort of 60k groups"},
}

// orderDB builds two physically sorted relations for the order
// workloads: s1 with a strictly ascending zero-padded string key k
// (string comparisons share a long prefix, so the forced root sort's
// n log n comparator passes are expensive while the single merge pass
// stays linear), s2 with every key duplicated (fan-out 2, doubling
// the join output the root sort must swallow), both with a payload
// column v. ANALYZE-time DetectOrder records both as sorted.
func orderDB(rows int) plan.Database {
	db := plan.Database{}
	key := func(i int) value.Value { return value.NewString(fmt.Sprintf("key-%08d", i)) }
	b1 := relation.NewBuilder("s1", "k", "v")
	for i := 0; i < rows; i++ {
		b1.Row(key(i), value.NewInt(int64((i*2654435761)%1000)))
	}
	db["s1"] = b1.Relation()
	b2 := relation.NewBuilder("s2", "k", "v")
	for i := 0; i < rows; i++ {
		for d := 0; d < 2; d++ {
			b2.Row(key(i), value.NewInt(int64((i*40503+d)%1000)))
		}
	}
	db["s2"] = b2.Relation()
	return db
}

// orderJoinQuery is SELECT * FROM s1 JOIN s2 ON s1.k = s2.k ORDER BY
// s1.k — the redundant-sort shape: over sorted inputs a merge join on
// k delivers the required order for free, while the pre-order-aware
// optimizer could only bolt a full sort onto a hash join.
func orderJoinQuery() plan.Node {
	j := plan.NewJoin(plan.InnerJoin, expr.EqCols("s1", "k", "s2", "k"),
		plan.NewScan("s1"), plan.NewScan("s2"))
	return plan.NewSortOrigin([]plan.SortKey{{Attr: schema.Attr("s1", "k")}}, -1, j, plan.SortOriginQuery)
}

// orderAggQuery is SELECT k, COUNT(*), SUM(v) FROM s1 GROUP BY k
// ORDER BY k — satisfied sort-free by a streaming aggregation over
// the sorted scan.
func orderAggQuery() plan.Node {
	g := plan.NewGroupBy(
		[]schema.Attribute{schema.Attr("s1", "k")},
		[]algebra.Aggregate{
			{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
			{Func: algebra.Sum, Arg: expr.Column("s1", "v"), Out: schema.Attr("q", "s"), NullIfEmpty: true},
		},
		plan.NewScan("s1"))
	return plan.NewSortOrigin([]plan.SortKey{{Attr: schema.Attr("s1", "k")}}, -1, g, plan.SortOriginQuery)
}

// optimizeOrderWinner runs the memo engine on an order-shaped query
// and asserts the tentpole's elimination contract: Result.Order set,
// zero enforcer sorts anywhere in the winner, the wanted physical
// operator present, EXPLAIN carrying the "eliminated" provenance, and
// the memo.order.* counters agreeing. Exits non-zero on violation.
func optimizeOrderWinner(q plan.Node, db plan.Database, est *stats.Estimator, wantOp string) (plan.Node, int) {
	reg := obs.NewRegistry()
	o := optimizer.New(est)
	o.Opts.UseMemo = optimizer.MemoAuto
	o.Opts.MaxPlans = 10000
	o.Opts.Obs = reg
	res, err := o.Optimize(q, db)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchopt: order workload:", err)
		os.Exit(1)
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchopt: order workload %s: "+format+"\n", append([]any{wantOp}, args...)...)
		fmt.Fprintln(os.Stderr, plan.Indent(res.Best.Plan))
		os.Exit(1)
	}
	if res.Order == nil {
		fail("root ORDER BY was not pushed into the memo as a property")
	}
	sorts, wanted := 0, 0
	plan.Walk(res.Best.Plan, func(n plan.Node) {
		switch m := n.(type) {
		case *plan.Sort:
			sorts++
			_ = m
		case *plan.MergeJoin:
			if wantOp == "mergejoin" {
				wanted++
			}
		case *plan.StreamAgg:
			if wantOp == "streamagg" {
				wanted++
			}
		}
	})
	if !res.Order.Eliminated() || sorts != 0 {
		fail("requirement not eliminated: enforced=%d, %d sort nodes", res.Order.Enforced, sorts)
	}
	if wanted == 0 {
		fail("winner does not contain the order-consuming operator")
	}
	c := reg.Snapshot().Counters
	if c["memo.order.eliminated"] != 1 || c["memo.order.enforced"] != 0 {
		fail("memo.order counters: eliminated=%d enforced=%d, want 1/0",
			c["memo.order.eliminated"], c["memo.order.enforced"])
	}
	if !strings.Contains(optimizer.Explain(res), "(eliminated)") {
		fail("EXPLAIN does not carry the eliminated provenance:\n%s", optimizer.Explain(res))
	}
	if err := plan.Validate(res.Best.Plan, db); err != nil {
		fail("winner fails validation: %v", err)
	}
	return res.Best.Plan, res.Order.Enforced
}

// execBench measures end-to-end execution of a fixed plan.
func execBench(p plan.Node, db plan.Database) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := executor.Run(p, db); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchDB() plan.Database {
	db := plan.Database{}
	for i := 1; i <= 7; i++ {
		name := fmt.Sprintf("r%d", i)
		b := relation.NewBuilder(name, "x", "y")
		for j := 0; j < 50; j++ {
			b.Row(value.NewInt(int64(j%9)), value.NewInt(int64(j%6)))
		}
		db[name] = b.Relation()
	}
	return db
}

func saturateBench(q plan.Node, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Saturate(q, core.SaturateOptions{MaxPlans: 10000, Workers: workers})
		}
	}
}

// optimizeBench measures a full optimization — enumerate, cost, pick
// best — with the given engine, metering against the default registry
// (so the workload's counter deltas land in the report).
func optimizeBench(q plan.Node, db plan.Database, est *stats.Estimator, mode optimizer.MemoMode) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := optimizer.New(est)
			o.Opts.UseMemo = mode
			o.Opts.MaxPlans = 10000
			if _, err := o.Optimize(q, db); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// The overhead gates' absolute slack (benchgate.Gate.Floor). Both
// overheads are fixed costs per optimization, and OptimizeQ5/memo is a
// 0.6–0.75 ms operation, so a ratio alone reads them as 5–19%. Measured
// on the 2-vCPU dev VM: the observation pipeline (private registry,
// merge into the aggregate, one flight record) costs 50–70 µs per query
// and has read up to 140 µs in a slow spell; building an untripped
// budget costs under 10 µs, inside the ±30 µs the best-of-3 timings of
// that operation move by between runs. OptimizeChain7/memo (≈65 ms and
// 42 MB per operation, 16 iterations a round) reads guarded/unguarded
// 0.97–1.02x back to back, i.e. no overhead beyond ±1.5 ms of run-to-run
// noise, which is what its floor allows on top of the ratio.
const (
	guardFloorMs      = 0.05
	guardChainFloorMs = 2.0
	obsFloorMs        = 0.15
)

// optimizeBenchGuarded is optimizeBench with a budget that never
// trips threaded through the run — it measures pure guard overhead.
func optimizeBenchGuarded(q plan.Node, db plan.Database, est *stats.Estimator, mode optimizer.MemoMode) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := optimizer.New(est)
			o.Opts.UseMemo = mode
			o.Opts.MaxPlans = 10000
			o.Opts.Budget = guard.New(context.Background(), guard.Limits{MaxExprs: 1 << 40}, nil)
			if _, err := o.Optimize(q, db); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// optimizeBenchObserved is optimizeBench plus the full observability
// pipeline per iteration: meter against a private registry, merge it
// into the process aggregate, deposit a flight record. The gate holds
// this within the obs tolerance of the plain run — observability must
// stay within noise of the un-observed optimizer.
func optimizeBenchObserved(q plan.Node, db plan.Database, est *stats.Estimator, mode optimizer.MemoMode) func(b *testing.B) {
	rec := flight.New(0)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := optimizer.New(est)
			o.Opts.UseMemo = mode
			o.Opts.MaxPlans = 10000
			reg := obs.NewRegistry()
			o.Opts.Obs = reg
			res, err := o.Optimize(q, db)
			if err != nil {
				b.Fatal(err)
			}
			obs.Default().Merge(reg)
			rec.Add(flight.Record{
				Query:    plan.Key(q),
				PlanKey:  plan.Key(res.Best.Plan),
				Degraded: res.Degraded,
				Counters: reg.Snapshot().Counters,
			})
		}
	}
}

func main() {
	out := flag.String("out", "BENCH_optimizer.json", "where to write the JSON report")
	tolerance := flag.Float64("tolerance", 1.10, "max allowed candidate/baseline time ratio before failing")
	guardTolerance := flag.Float64("guard-tolerance", 1.02, "max allowed guarded/unguarded time ratio (guard overhead budget)")
	obsTolerance := flag.Float64("obs-tolerance", 1.02, "max allowed observed/plain time ratio (observability overhead budget)")
	workload := flag.String("workload", "", "only measure workloads whose name matches this regexp; gates and ratios on skipped workloads are skipped")
	flag.Parse()
	filter, err := regexp.Compile(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchopt: bad -workload:", err)
		os.Exit(2)
	}
	skip := func(name string) bool { return *workload != "" && !filter.MatchString(name) }

	fmt.Printf("benchopt: GOMAXPROCS=%d %s\n", runtime.GOMAXPROCS(0), runtime.Version())
	var results []benchgate.Result
	deltas := map[string]map[string]int64{}
	measure := func(name string, f func(b *testing.B)) benchgate.Result {
		if skip(name) {
			return benchgate.Result{}
		}
		var res benchgate.Result
		if d := benchgate.Deltas(func() { res = benchgate.Run(name, &results, f) }); d != nil {
			deltas[name] = d
		}
		return res
	}
	measureBest := func(name string, rounds int, f func(b *testing.B)) benchgate.Result {
		if skip(name) {
			return benchgate.Result{}
		}
		var res benchgate.Result
		if d := benchgate.Deltas(func() { res = benchgate.RunBest(name, &results, rounds, f) }); d != nil {
			deltas[name] = d
		}
		return res
	}
	// ratio is a/b, or 0 when either side was filtered out — report
	// fields must stay finite for JSON.
	ratio := func(a, b benchgate.Result) float64 {
		if a.Iterations == 0 || b.Iterations == 0 {
			return 0
		}
		return a.MsPerOp / b.MsPerOp
	}
	seedRatio := func(seedMs float64, r benchgate.Result) float64 {
		if r.Iterations == 0 {
			return 0
		}
		return seedMs / r.MsPerOp
	}

	q5 := experiments.Q5()
	chain := experiments.ChainQuery(7)
	serialQ5 := measure("SaturateQ5/serial", saturateBench(q5, 1))
	parQ5 := measure("SaturateQ5/parallel", saturateBench(q5, -1))
	measure("SaturateChain7/serial", saturateBench(chain, 1))
	measure("SaturateChain7/parallel", saturateBench(chain, -1))

	db := benchDB()
	est := stats.NewEstimator(stats.FromDatabase(db))
	satOptQ5 := measure("OptimizeQ5/saturate", optimizeBench(q5, db, est, optimizer.MemoOff))
	satOptChain := measure("OptimizeChain7/saturate", optimizeBench(chain, db, est, optimizer.MemoOff))
	// The guard- and obs-overhead gates compare at a few percent
	// tolerance, so both sides are measured min-of-3 — a single
	// testing.Benchmark sample jitters more than the overhead being
	// gated — and workloads gated against each other are measured back
	// to back: with other workloads in between, heap state and the
	// host's drifting speed read as 2–7% of guard overhead on chain7.
	memOptQ5 := measureBest("OptimizeQ5/memo", 3, optimizeBench(q5, db, est, optimizer.MemoAuto))
	memOptQ5G := measureBest("OptimizeQ5/memo-guarded", 3, optimizeBenchGuarded(q5, db, est, optimizer.MemoAuto))
	memOptQ5O := measureBest("OptimizeQ5/memo-observed", 3, optimizeBenchObserved(q5, db, est, optimizer.MemoAuto))
	memOptChain := measureBest("OptimizeChain7/memo", 3, optimizeBench(chain, db, est, optimizer.MemoAuto))
	memOptChainG := measureBest("OptimizeChain7/memo-guarded", 3, optimizeBenchGuarded(chain, db, est, optimizer.MemoAuto))

	// One instrumented memo run for the branch-and-bound evidence.
	reg := obs.NewRegistry()
	o := optimizer.New(est)
	o.Opts.MaxPlans = 10000
	o.Opts.Obs = reg
	if _, err := o.Optimize(q5, db); err != nil {
		fmt.Fprintln(os.Stderr, "benchopt:", err)
		os.Exit(1)
	}
	memoPruned := reg.Snapshot().Counters["memo.pruned"]
	fmt.Printf("memo.pruned on Q5: %d extraction candidates cut by branch-and-bound\n", memoPruned)

	// Order workloads: the optimizer must turn the redundant-sort
	// queries into sort-free merge/streaming plans (hard assertions
	// inside optimizeOrderWinner), and those plans must beat the
	// forced hash-plus-root-sort spellings end-to-end.
	odb := orderDB(60000)
	oest := stats.NewEstimator(stats.FromDatabase(odb))
	enforcedSorts := 0
	var mergeExec, hashSortExec, streamExec, hashAggExec benchgate.Result
	if !skip("OrderExecJoin") {
		mergePlan, enf := optimizeOrderWinner(orderJoinQuery(), odb, oest, "mergejoin")
		enforcedSorts += enf
		mergeExec = measureBest("OrderExecJoin/merge", 3, execBench(mergePlan, odb))
		hashSortExec = measureBest("OrderExecJoin/hash+sort", 3, execBench(orderJoinQuery(), odb))
	}
	if !skip("OrderExecAgg") {
		streamPlan, enf := optimizeOrderWinner(orderAggQuery(), odb, oest, "streamagg")
		enforcedSorts += enf
		streamExec = measureBest("OrderExecAgg/stream", 3, execBench(streamPlan, odb))
		hashAggExec = measureBest("OrderExecAgg/hash+sort", 3, execBench(orderAggQuery(), odb))
	}

	closure := core.Saturate(q5, core.SaturateOptions{MaxPlans: 10000})
	costCold := benchgate.Result{}
	costMemo := benchgate.Result{}
	if !skip("CostClosure") {
		costCold = benchgate.Run("CostClosure/estimator", &results, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range closure {
					if _, err := est.PlanCost(p); err != nil {
						b.Fatal(err)
					}
					if _, err := est.Rows(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		costMemo = benchgate.Run("CostClosure/session", &results, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sess := est.NewSession(nil)
				for _, p := range closure {
					if _, err := sess.PlanCost(p); err != nil {
						b.Fatal(err)
					}
					if _, err := sess.Rows(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}

	rep := report{
		Header:            benchgate.NewHeader(seeds, results),
		SpeedupQ5Serial:   seedRatio(seeds[0].MsPerOp, serialQ5),
		SpeedupQ5Parallel: seedRatio(seeds[0].MsPerOp, parQ5),
		SpeedupCostMemo:   ratio(costCold, costMemo),
		SpeedupMemoQ5:     ratio(satOptQ5, memOptQ5),
		SpeedupMemoChain7: ratio(satOptChain, memOptChain),
		MemoPrunedQ5:      memoPruned,

		GuardOverheadQ5:     ratio(memOptQ5G, memOptQ5),
		GuardOverheadChain7: ratio(memOptChainG, memOptChain),
		ObsOverheadQ5:       ratio(memOptQ5O, memOptQ5),

		SpeedupOrderMerge:     ratio(hashSortExec, mergeExec),
		SpeedupOrderStreamAgg: ratio(hashAggExec, streamExec),
		OrderEnforcedSorts:    enforcedSorts,
		CounterDeltas:         deltas,
	}
	if err := benchgate.WriteJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchopt:", err)
		os.Exit(1)
	}
	fmt.Printf("speedups vs seed: Q5 serial %.2fx, Q5 parallel %.2fx; cost memo %.2fx vs cold\n",
		rep.SpeedupQ5Serial, rep.SpeedupQ5Parallel, rep.SpeedupCostMemo)
	fmt.Printf("memo engine vs saturation: Q5 %.2fx, chain7 %.2fx\n",
		rep.SpeedupMemoQ5, rep.SpeedupMemoChain7)
	fmt.Printf("guard overhead (guarded/unguarded): Q5 %.4f, chain7 %.4f\n",
		rep.GuardOverheadQ5, rep.GuardOverheadChain7)
	fmt.Printf("obs overhead (observed/plain): Q5 %.4f\n", rep.ObsOverheadQ5)
	fmt.Printf("order workloads: merge vs hash+sort %.2fx, stream agg vs hash+sort %.2fx, enforcer sorts %d\n",
		rep.SpeedupOrderMerge, rep.SpeedupOrderStreamAgg, rep.OrderEnforcedSorts)
	fmt.Println("wrote", *out)

	// Regression gates: the parallel engine must not lose to the serial
	// one, and the memo engine must not lose to saturation, on the
	// canned workloads (ratio 1.0 ± tolerance; on a 1-CPU host
	// Workers:GOMAXPROCS resolves to the serial path, so the parallel
	// gate is exact there and meaningful on multi-core).
	// The guard gates hold the overhead of an untripped budget — the
	// always-on production cost of resource governance — under the
	// guard tolerance (2% by default) plus guardFloorMs on the memo
	// workloads; the obs gate likewise with obsFloorMs.
	err = benchgate.Check(
		benchgate.Gate{Label: "parallel SaturateQ5 vs serial", Candidate: parQ5, Baseline: serialQ5, Tolerance: *tolerance},
		benchgate.Gate{Label: "memo OptimizeQ5 vs saturation", Candidate: memOptQ5, Baseline: satOptQ5, Tolerance: *tolerance},
		benchgate.Gate{Label: "memo OptimizeChain7 vs saturation", Candidate: memOptChain, Baseline: satOptChain, Tolerance: *tolerance},
		benchgate.Gate{Label: "guarded OptimizeQ5 vs unguarded", Candidate: memOptQ5G, Baseline: memOptQ5, Tolerance: *guardTolerance, Floor: guardFloorMs},
		benchgate.Gate{Label: "guarded OptimizeChain7 vs unguarded", Candidate: memOptChainG, Baseline: memOptChain, Tolerance: *guardTolerance, Floor: guardChainFloorMs},
		benchgate.Gate{Label: "observed OptimizeQ5 vs plain", Candidate: memOptQ5O, Baseline: memOptQ5, Tolerance: *obsTolerance, Floor: obsFloorMs},
		// The tentpole gate: the optimizer-picked merge plan must run at
		// least twice as fast end-to-end as the forced hash-join-plus-
		// root-sort plan on sorted inputs (candidate/baseline <= 0.5).
		benchgate.Gate{Label: "order-aware merge plan vs forced hash join + root sort (>=2x)", Candidate: mergeExec, Baseline: hashSortExec, Tolerance: 0.5},
		// Streaming aggregation must at minimum not lose to hash
		// aggregation plus a root sort over the same sorted input.
		benchgate.Gate{Label: "order-aware stream agg vs hash agg + root sort", Candidate: streamExec, Baseline: hashAggExec, Tolerance: 1.0},
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchopt:", err)
		os.Exit(1)
	}
}
