// Package benchgate holds the measurement and regression-gate
// plumbing shared by the benchmark harnesses (cmd/benchopt,
// cmd/benchexec): the JSON result schema, the testing.Benchmark
// driver, report serialization, and the tolerance check that turns a
// slower-than-baseline ratio into a non-zero exit.
package benchgate

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// Result is one workload's measurement.
type Result struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	MsPerOp     float64 `json:"msPerOp"`
}

// SeedBaseline is a pre-change measurement kept for comparison.
type SeedBaseline struct {
	Name        string  `json:"name"`
	Engine      string  `json:"engine,omitempty"`
	MsPerOp     float64 `json:"msPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	Note        string  `json:"note"`
}

// Header is the part of the report schema every harness shares; embed
// it first so the JSON field order matches the historical reports.
type Header struct {
	GoMaxProcs    int            `json:"gomaxprocs"`
	GoVersion     string         `json:"goVersion"`
	SeedBaselines []SeedBaseline `json:"seedBaselines"`
	Results       []Result       `json:"results"`
}

// NewHeader fills the environment fields.
func NewHeader(seeds []SeedBaseline, results []Result) Header {
	return Header{
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		SeedBaselines: seeds,
		Results:       results,
	}
}

// Run measures one workload through testing.Benchmark, appends the
// result to results, and echoes a human-readable line.
func Run(name string, results *[]Result, f func(b *testing.B)) Result {
	return RunEngine(name, "", results, f)
}

// RunEngine is Run with the result stamped with the execution engine
// that produced it ("tuple", "vector", "spill"). Engine-specific
// workloads record it so their numbers are never gated against a
// different engine's baselines by accident.
func RunEngine(name, engine string, results *[]Result, f func(b *testing.B)) Result {
	r := testing.Benchmark(f)
	res := Result{
		Name:        name,
		Engine:      engine,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
	}
	*results = append(*results, res)
	fmt.Printf("%-28s %4d iter  %10.2f ms/op  %12d B/op  %9d allocs/op\n",
		name, res.Iterations, res.MsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

// WriteJSON writes the report with the harnesses' historical
// formatting (two-space indent, trailing newline).
func WriteJSON(path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// Deltas runs fn and returns the movement of the default registry's
// counters across it (obs.Snapshot.Diff of before/after snapshots,
// zero deltas dropped; nil when nothing moved). The harnesses wrap
// each workload in it so BENCH_*.json reports how much engine work —
// waves, rule firings, prunes, hash builds — one measurement drove,
// alongside how long it took.
func Deltas(fn func()) map[string]int64 {
	before := obs.Default().Snapshot()
	fn()
	d := obs.Default().Snapshot().Diff(before)
	if len(d.Counters) == 0 {
		return nil
	}
	return d.Counters
}

// Gate is one regression check: Candidate must not exceed
// Baseline×Tolerance + Floor.
type Gate struct {
	// Label names the check in the failure message, e.g.
	// "parallel SaturateQ5 vs serial".
	Label     string
	Candidate Result
	Baseline  Result
	// Tolerance is the allowed time ratio, e.g. 1.10 for +10%.
	Tolerance float64
	// Floor is an absolute slack in milliseconds per operation on top of
	// the ratio. An overhead gate needs one when the overhead is a fixed
	// cost per operation: once the operation itself gets fast, that cost
	// reads as a large ratio although nothing got slower.
	Floor float64
}

// Check evaluates the gates in order and returns an error describing
// the first failure, or nil when every candidate is within its bound.
// Gates whose candidate or baseline has zero iterations are skipped:
// a zero-iteration Result means the workload was filtered out with
// -workload and there is nothing to compare.
func Check(gates ...Gate) error {
	for _, g := range gates {
		if g.Candidate.Iterations == 0 || g.Baseline.Iterations == 0 {
			continue
		}
		if g.Candidate.MsPerOp <= g.Baseline.MsPerOp*g.Tolerance+g.Floor {
			continue
		}
		return fmt.Errorf("FAIL %s is %.2fx the baseline time (tolerance %.2fx + %.3f ms)",
			g.Label, g.Candidate.MsPerOp/g.Baseline.MsPerOp, g.Tolerance, g.Floor)
	}
	return nil
}

// RunBest measures a workload rounds times and keeps the fastest
// run (the minimum is the stable estimator of a workload's true cost
// under scheduler noise). Use it for tight-tolerance gates — a
// single-sample comparison at a few percent tolerance flakes on an
// otherwise-idle machine.
func RunBest(name string, results *[]Result, rounds int, f func(b *testing.B)) Result {
	best := testing.Benchmark(f)
	for i := 1; i < rounds; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	res := Result{
		Name:        name,
		Iterations:  best.N,
		NsPerOp:     best.NsPerOp(),
		BytesPerOp:  best.AllocedBytesPerOp(),
		AllocsPerOp: best.AllocsPerOp(),
		MsPerOp:     float64(best.NsPerOp()) / 1e6,
	}
	*results = append(*results, res)
	fmt.Printf("%-28s %4d iter  %10.2f ms/op  %12d B/op  %9d allocs/op  (best of %d)\n",
		name, res.Iterations, res.MsPerOp, res.BytesPerOp, res.AllocsPerOp, rounds)
	return res
}
