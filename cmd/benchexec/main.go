// Command benchexec is the executor's benchmark harness, the
// execution-side sibling of cmd/benchopt: it measures the physical
// operators on canned workloads — the large equi-join, hash
// aggregation, distinct projection, their columnar kernels and the
// spilling grace join — through testing.Benchmark, writes the numbers
// to BENCH_executor.json next to the embedded pre-change seed
// baselines, and exits non-zero if a columnar kernel is not at least
// 3x faster than its tuple-engine seed — the regression gate make
// bench enforces.
//
// Usage:
//
//	benchexec [-out BENCH_executor.json] [-vec-tolerance 0.33] [-workload <regex>]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/guard"

	"repro/internal/algebra"
	"repro/internal/benchgate"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// report is the BENCH_executor.json schema.
type report struct {
	benchgate.Header
	// SpeedupEquiJoin is seed EquiJoinLarge ms / current serial ms.
	SpeedupEquiJoin float64 `json:"speedupEquiJoin"`
	// SpeedupHashAgg is seed HashAgg ms / current ms.
	SpeedupHashAgg float64 `json:"speedupHashAgg"`
	// SpeedupDistinct is seed DistinctProject ms / current ms.
	SpeedupDistinct float64 `json:"speedupDistinct"`
	// SpeedupVecEquiJoin is the tuple-engine VecEquiJoinLarge seed ms /
	// current columnar kernel ms — the vectorization win on the join.
	SpeedupVecEquiJoin float64 `json:"speedupVecEquiJoin,omitempty"`
	// SpeedupVecHashAgg is the tuple-engine VecHashAgg seed ms /
	// current columnar kernel ms — the vectorization win on grouping.
	SpeedupVecHashAgg float64 `json:"speedupVecHashAgg,omitempty"`
	// CounterDeltas maps workload name → the default-registry counter
	// movement (obs.Snapshot.Diff) across that workload's measurement.
	CounterDeltas map[string]map[string]int64 `json:"counterDeltas,omitempty"`
}

// Seed numbers measured at the pre-change commit on this container
// (GOMAXPROCS=1, Intel Xeon 2.10GHz); see BENCH_executor.json history.
var seeds = []benchgate.SeedBaseline{
	{Name: "EquiJoinLarge", MsPerOp: 51.2, BytesPerOp: 27468448, AllocsPerOp: 519968,
		Note: "40k x 40k inner equi-join, string hash keys rendered per tuple via fmt.Fprintf"},
	{Name: "HashAgg", MsPerOp: 87.6, BytesPerOp: 29500446, AllocsPerOp: 1385053,
		Note: "GROUP BY over 200k rows into 1000 groups (count(*), sum), string group keys"},
	{Name: "DistinctProject", MsPerOp: 136.2, BytesPerOp: 53277004, AllocsPerOp: 1796547,
		Note: "distinct projection of 200k rows onto 55k distinct pairs, string tuple keys"},
	// Tuple-engine numbers at the pre-vectorization commit — the
	// baselines the vectorized kernels gate >=3x against. Engine is
	// recorded so these are never compared to tuple-engine candidates.
	{Name: "VecEquiJoinLarge", Engine: "tuple", MsPerOp: 23.83, BytesPerOp: 20849023, AllocsPerOp: 80246,
		Note: "tuple-engine serial hash join on the 40k x 40k workload; vectorized kernel must be >=3x faster (candidate gathers every output column inside the timed loop)"},
	{Name: "VecHashAgg", Engine: "tuple", MsPerOp: 37.25, BytesPerOp: 7189898, AllocsPerOp: 207052,
		Note: "tuple-engine GroupProject on the 200k-row workload; vectorized kernel must be >=3x faster (candidate reads every output column inside the timed loop)"},
}

func joinInputs(n int) (*relation.Relation, *relation.Relation) {
	b1 := relation.NewBuilder("l", "x", "y")
	b2 := relation.NewBuilder("r", "x", "y")
	for i := 0; i < n; i++ {
		b1.Row(value.NewInt(int64(i)), value.NewInt(int64(i%97)))
		b2.Row(value.NewInt(int64(i)), value.NewInt(int64(i%89)))
	}
	return b1.Relation(), b2.Relation()
}

func aggInput() *relation.Relation {
	b := relation.NewBuilder("t", "x", "y")
	for i := 0; i < 200000; i++ {
		b.Row(value.NewInt(int64(i%1000)), value.NewInt(int64(i%37)))
	}
	return b.Relation()
}

func distinctInput() *relation.Relation {
	b := relation.NewBuilder("t", "x", "y")
	for i := 0; i < 200000; i++ {
		b.Row(value.NewInt(int64(i%5000)), value.NewInt(int64(i%11)))
	}
	return b.Relation()
}

// readAll reads every column of a kernel's output — which gathers the
// columns the kernel left pending — and returns the number of values
// read.
func readAll(out *batch.Rel) int {
	n := 0
	for c := 0; c < out.Width(); c++ {
		n += out.Col(c).Len()
	}
	return n
}

func main() {
	out := flag.String("out", "BENCH_executor.json", "where to write the JSON report")
	vecTolerance := flag.Float64("vec-tolerance", 1.0/3.0, "max allowed vectorized/tuple time ratio (default: vectorized must be >=3x faster)")
	workload := flag.String("workload", "", "only measure workloads whose name matches this regexp; gates on skipped workloads are skipped")
	flag.Parse()
	filter, err := regexp.Compile(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchexec: bad -workload:", err)
		os.Exit(2)
	}

	fmt.Printf("benchexec: GOMAXPROCS=%d %s\n", runtime.GOMAXPROCS(0), runtime.Version())
	var results []benchgate.Result
	deltas := map[string]map[string]int64{}
	// measure runs one workload unless -workload filters it out; a
	// skipped workload yields a zero Result, which disables any gate
	// and speedup figure referencing it.
	measure := func(name, engine string, f func(b *testing.B)) benchgate.Result {
		if *workload != "" && !filter.MatchString(name) {
			return benchgate.Result{}
		}
		var res benchgate.Result
		if d := benchgate.Deltas(func() { res = benchgate.RunEngine(name, engine, &results, f) }); d != nil {
			deltas[name] = d
		}
		return res
	}
	// speedup is seed-ms / candidate-ms, or 0 when the workload was
	// filtered out.
	speedup := func(seedMs float64, r benchgate.Result) float64 {
		if r.Iterations == 0 {
			return 0
		}
		return seedMs / r.MsPerOp
	}

	l, r := joinInputs(40000)
	joinPred := expr.EqCols("l", "x", "r", "x")
	serialJoin := measure("EquiJoinLarge/serial", "tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := executor.JoinExec(plan.InnerJoin, joinPred, l, r)
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() != 40000 {
				b.Fatal("bad join")
			}
		}
	})
	aggRel := aggInput()
	aggKeys := []schema.Attribute{schema.Attr("t", "x")}
	aggs := []algebra.Aggregate{
		{Func: algebra.CountStar, Out: schema.Attr("q", "n")},
		{Func: algebra.Sum, Arg: expr.Column("t", "y"), Out: schema.Attr("q", "s")},
	}
	hashAgg := measure("HashAgg", "tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := algebra.GroupProject(aggKeys, aggs, aggRel); out.Len() != 1000 {
				b.Fatal("bad agg")
			}
		}
	})

	distRel := distinctInput()
	distAttrs := []schema.Attribute{schema.Attr("t", "x"), schema.Attr("t", "y")}
	distinct := measure("DistinctProject", "tuple", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := distRel.Project(distAttrs, true); out.Len() != 55000 {
				b.Fatal("bad distinct")
			}
		}
	})

	// Vectorized kernels: data is shaped columnar once (as a columnar
	// engine holds it between operators) and the kernel runs per
	// iteration. The seeds pin the tuple engine at the pre-change
	// commit; the >=3x gates below divide against them. The inputs are
	// plain FromRelation shapes, not shared images, so every iteration
	// hashes its build side, and readAll gathers every output column
	// inside the timed loop: the tuple engine's output is materialized,
	// so the columnar one must be too for the ratio to compare like with
	// like.
	lCol, rCol := batch.FromRelation(l), batch.FromRelation(r)
	vecJoin := measure("VecEquiJoinLarge", "vector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := executor.JoinExecVec(plan.InnerJoin, joinPred, lCol, rCol, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out.N != 40000 || readAll(out) != 40000*out.Width() {
				b.Fatal("bad join")
			}
		}
	})
	aggCol := batch.FromRelation(aggRel)
	vecAgg := measure("VecHashAgg", "vector", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := executor.GroupByExecVec(aggKeys, aggs, aggCol, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out.N != 1000 || readAll(out) != 1000*out.Width() {
				b.Fatal("bad agg")
			}
		}
	})

	// SpillJoin: the out-of-core contract measured. The 9 MB byte
	// budget holds the join's modeled output (40k rows x 6 cols x 32 B
	// ~= 7.7 MB) plus any single spilled partition pair, but not the
	// in-memory build side (~3.8 MB resident on top of the output):
	// the hash join trips while the grace join partitions both sides
	// to disk and completes. The measurement is the end-to-end spilled
	// join, temp files included.
	sl, sr := joinInputs(40000)
	spillLimits := guard.Limits{MaxBytes: 9 << 20}
	if _, err := executor.RunGuarded(
		plan.NewJoin(plan.InnerJoin, joinPred, plan.NewScan("l"), plan.NewScan("r")),
		plan.Database{"l": sl, "r": sr},
		guard.New(context.Background(), spillLimits, nil)); !guard.IsBudget(err) {
		fmt.Fprintln(os.Stderr, "benchexec: in-memory join did not trip the SpillJoin budget; err =", err)
		os.Exit(1)
	}
	measure("SpillJoin", "spill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bud := guard.New(context.Background(), spillLimits, nil)
			out, err := executor.JoinExecSpill(plan.InnerJoin, joinPred, sl, sr, bud, executor.SpillOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() != 40000 {
				b.Fatal("bad spilled join")
			}
		}
	})

	rep := report{
		Header:             benchgate.NewHeader(seeds, results),
		SpeedupEquiJoin:    speedup(seeds[0].MsPerOp, serialJoin),
		SpeedupHashAgg:     speedup(seeds[1].MsPerOp, hashAgg),
		SpeedupDistinct:    speedup(seeds[2].MsPerOp, distinct),
		SpeedupVecEquiJoin: speedup(seeds[3].MsPerOp, vecJoin),
		SpeedupVecHashAgg:  speedup(seeds[4].MsPerOp, vecAgg),
		CounterDeltas:      deltas,
	}
	if err := benchgate.WriteJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchexec:", err)
		os.Exit(1)
	}
	fmt.Printf("speedups vs seed: equi-join %.2fx; hash-agg %.2fx; distinct %.2fx\n",
		rep.SpeedupEquiJoin, rep.SpeedupHashAgg, rep.SpeedupDistinct)
	if rep.SpeedupVecEquiJoin > 0 || rep.SpeedupVecHashAgg > 0 {
		fmt.Printf("vectorized vs tuple seed: equi-join %.2fx, hash-agg %.2fx\n",
			rep.SpeedupVecEquiJoin, rep.SpeedupVecHashAgg)
	}
	fmt.Println("wrote", *out)

	// Regression gates: the vectorized kernels are compared against the
	// committed tuple-engine seeds (same workload, pre-change commit),
	// not against this run's tuple numbers, so a uniformly slow host
	// cannot mask a kernel regression. Baseline iterations are pinned to 1 so -workload
	// filtering of the candidate (not the seed) drives gate skipping.
	vecJoinSeed := benchgate.Result{Name: seeds[3].Name, Engine: seeds[3].Engine, MsPerOp: seeds[3].MsPerOp, Iterations: 1}
	vecAggSeed := benchgate.Result{Name: seeds[4].Name, Engine: seeds[4].Engine, MsPerOp: seeds[4].MsPerOp, Iterations: 1}
	err = benchgate.Check(
		benchgate.Gate{Label: "VecEquiJoinLarge vs tuple seed (>=3x)", Candidate: vecJoin, Baseline: vecJoinSeed, Tolerance: *vecTolerance},
		benchgate.Gate{Label: "VecHashAgg vs tuple seed (>=3x)", Candidate: vecAgg, Baseline: vecAggSeed, Tolerance: *vecTolerance},
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchexec:", err)
		os.Exit(1)
	}
}
