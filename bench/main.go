// Command bench is the repository's performance record: one
// reproducible serving benchmark with four workloads, the end-to-end
// metrics a client of reorder.Service sees, and a separate traced
// pass that attributes a request's time to the layers underneath.
// README.md in this directory says what each workload and metric is
// for; BENCHMARK.json at the repository root declares them.
//
// It self-hosts reorder.NewService(...).Handler() on a loopback
// listener and drives it closed-loop from the same process. The
// service sees generated SQL only.
//
//	go run -C bench .                                   every workload, both passes
//	go run -C bench . -workload hit_scan -trace 0       one workload, end-to-end metrics
//	go run -C bench . -workload cold_plan -trace 1      one workload, per-layer metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	exitOK        = 0
	exitIncorrect = 1
	exitUsage     = 2
)

// hostInfo says where and how a result was measured; a number without
// it cannot be compared with anything.
type hostInfo struct {
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
	Started    string  `json:"started"`
}

// commit is the revision the toolchain stamped into the binary, or
// "unknown" when it stamped none (go run does not, and the acceptance
// driver builds from a plain directory).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}

// report is out/result.json.
type report struct {
	Host   hostInfo      `json:"host"`
	Passes []*passResult `json:"passes"`
}

// resultLine is the machine-readable last line of a pass.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all)")
		seed    = fs.Int64("seed", 1996, "seed of the request streams")
		seconds = fs.Float64("seconds", 24, "measured seconds per pass")
		trace   = fs.Int("trace", -1, "0: end-to-end pass, 1: traced per-layer pass, -1: both")
		reps    = fs.Int("reps", 10, "timed repetitions the end-to-end pass splits its seconds into")
		smoke   = fs.Bool("smoke", false, "tiny run of everything: 1 repetition, a fraction of a second per pass")
		out     = fs.String("out", "out", "directory for result.json and trace.json")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, smoke: *smoke}
	if *smoke {
		o.seconds, o.reps = 0.4, 1
	}
	if o.reps < 1 || o.seconds <= 0 || *trace < -1 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: need -reps ≥ 1, -seconds > 0, -trace in {-1,0,1} and no positional arguments")
		return exitUsage
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return exitUsage
		}
		selected = []*workload{w}
	}
	return execute(selected, o, *trace, *out, stdout, stderr)
}

// execute runs the selected passes of the selected workloads, prints
// them and writes the files under out. The exit code is non-zero when
// any checked answer was wrong or any request failed.
func execute(selected []*workload, o options, trace int, out string, stdout, stderr io.Writer) int {
	rep := report{Host: hostInfo{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, Clients: clients, Reps: o.reps, Seconds: o.seconds, Smoke: o.smoke,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(stdout, "bench: nproc=%d gomaxprocs=%d %s commit=%s seed=%d clients=%d reps=%d seconds=%g\n",
		rep.Host.NumCPU, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.Commit, o.seed, clients, o.reps, o.seconds)

	code := exitOK
	var traces []workloadTrace
	for _, w := range selected {
		if trace != 1 {
			res, err := runEndToEnd(w, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return exitIncorrect
			}
			rep.Passes = append(rep.Passes, res)
			printPass(stdout, res, endToEnd)
			if !res.correct() {
				code = exitIncorrect
			}
		}
		if trace != 0 {
			res, tr, err := runTraced(w, o)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return exitIncorrect
			}
			rep.Passes = append(rep.Passes, res)
			traces = append(traces, workloadTrace{w.name, tr})
			printPass(stdout, res, perLayer)
			if !res.correct() {
				code = exitIncorrect
			}
		}
	}
	if len(traces) > 0 {
		if err := writeTraces(out, traces); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return exitIncorrect
		}
	}
	if err := writeReport(out, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return exitIncorrect
	}
	return code
}

// printPass prints every metric of a pass by name with its unit, then
// the one-line JSON result the acceptance driver reads.
func printPass(w io.Writer, res *passResult, defs []metricDef) {
	pass := "end-to-end"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s): attempted=%d failed=%d fail_ratio=%g reference_rows=%d\n",
		res.Workload, pass, res.Attempted, res.Failed, res.FailRatio, res.Reference)
	line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]lineValue)}
	for _, def := range defs {
		m := res.Metrics[def.name]
		fmt.Fprintf(w, "%-30s %14.4f %-7s", def.name, m.Value, m.Unit)
		if def.bound > 0 {
			fmt.Fprintf(w, " q1=%.4f q3=%.4f n=%d (%s is better, bound %g%%)", m.Q1, m.Q3, m.N, def.better, def.bound*100)
		}
		if m.Unresolved {
			fmt.Fprint(w, " UNRESOLVED")
		}
		if m.Note != "" {
			fmt.Fprintf(w, " [%s]", m.Note)
		}
		fmt.Fprintln(w)
		line.Metrics[def.name] = lineValue{Value: m.Value, Unit: m.Unit}
	}
	for _, f := range res.Flags {
		fmt.Fprintf(w, "FLAG %s\n", f)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // a struct of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", data)
}

func writeReport(dir string, rep report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}
