package main

import (
	"encoding/json"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunNoArgsExitsNonZero: neither -query nor -demo must fail with
// a usage message, not silently run a default.
func TestRunNoArgsExitsNonZero(t *testing.T) {
	code, _, stderr := runCapture(t)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	for _, want := range []string{"provide -query or -demo", "usage: reorder"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

func TestRunUnknownDemo(t *testing.T) {
	code, _, stderr := runCapture(t, "-demo", "nope")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown demo "nope"`) {
		t.Errorf("stderr: %s", stderr)
	}
}

// TestRunBadFlag: an unknown flag is a usage error — including -vec,
// the engine selector that went when every mode moved to one engine,
// -trace, -feedback and -replan-qerror, which went when EXPLAIN
// ANALYZE became one pass timed by its phase list, -workers:
// exploration is serial, which was faster on every cold shape, and
// -slow-query: one run records one query, so there is nothing to pick
// the slow ones from.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-demo", "supplier", "-stats", "-vec"},
		{"-demo", "supplier", "-trace"},
		{"-demo", "supplier", "-feedback"},
		{"-demo", "supplier", "-stats", "-replan-qerror", "10"},
		{"-demo", "supplier", "-workers", "2"},
		{"-demo", "supplier", "-stats", "-slow-query", "1ns"},
	} {
		if code, _, _ := runCapture(t, args...); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2", args, code)
		}
	}
}

// TestRunSupplierStats is the CLI acceptance path: -demo supplier
// -stats prints an EXPLAIN ANALYZE plan with per-operator actual
// rows, timings and the optimizer's phase and rule counters.
func TestRunSupplierStats(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-demo", "supplier", "-stats")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"actual rows=",
		"time=",
		"phases:",
		"explore",
		"optimizer.rule_applied",
		"memo.exprs",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
}

// TestRunStatsJSON: -statsjson emits a parseable report whose plan
// tree carries actual-row annotations.
func TestRunStatsJSON(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-demo", "supplier", "-statsjson")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	var rep struct {
		RowsOut  int             `json:"rowsOut"`
		Phases   []any           `json:"phases"`
		PlanTree json.RawMessage `json:"planTree"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(rep.Phases) == 0 {
		t.Error("report has no phases")
	}
	if !strings.Contains(string(rep.PlanTree), `"actual"`) {
		t.Error("plan tree has no actual-row annotations")
	}
}

func TestRunQueryPathWithStats(t *testing.T) {
	code, stdout, stderr := runCapture(t,
		"-query", "select sup_detail.supkey from sup_detail where sup_detail.suprating = 'BANKRUPT'",
		"-stats")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "best plan") {
		t.Error("missing optimizer explanation")
	}
	if !strings.Contains(stdout, "EXPLAIN ANALYZE") {
		t.Error("missing EXPLAIN ANALYZE report")
	}
}

func TestRunDemoQ4RejectsStats(t *testing.T) {
	code, _, stderr := runCapture(t, "-demo", "q4", "-stats")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "no executable database") {
		t.Errorf("stderr: %s", stderr)
	}
}

// syncBuffer is a strings.Builder safe for the writer goroutine
// (run's stderr) and the polling test to share.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRunMetricsAddr runs the CLI with -metrics-addr and scrapes the
// endpoints during the linger window: /metrics must pass the strict
// exposition parse and /debug/queries must hold the run's record.
func TestRunMetricsAddr(t *testing.T) {
	var stdout strings.Builder
	stderr := &syncBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-demo", "supplier", "-stats",
			"-metrics-addr", "127.0.0.1:0",
			"-metrics-linger", "2s",
		}, &stdout, stderr)
	}()

	// The address is printed to stderr as soon as the listener is up.
	re := regexp.MustCompile(`metrics: serving on http://(\S+)/metrics`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := re.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never printed; stderr: %s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Wait for the run itself to finish so the flight record exists;
	// the server lingers past this point.
	waitRec := time.Now().Add(10 * time.Second)
	var dump struct {
		Len     int `json:"len"`
		Records []struct {
			Query   string `json:"query"`
			PlanKey string `json:"planKey"`
			Phases  []struct {
				Name string `json:"name"`
			} `json:"phases"`
			Ops []struct {
				Op     string  `json:"op"`
				QError float64 `json:"qError"`
			} `json:"ops"`
		} `json:"records"`
	}
	for {
		resp, err := http.Get("http://" + addr + "/debug/queries")
		if err != nil {
			t.Fatalf("debug/queries: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("debug/queries not JSON: %v", err)
		}
		if dump.Len > 0 {
			break
		}
		if time.Now().After(waitRec) {
			t.Fatal("flight record never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	rec := dump.Records[0]
	if rec.Query == "" || rec.PlanKey == "" {
		t.Errorf("record missing keys: %+v", rec)
	}
	if len(rec.Ops) == 0 {
		t.Error("record has no per-operator rows")
	}
	for _, op := range rec.Ops {
		if op.QError < 1 {
			t.Errorf("op %s q-error %v < 1", op.Op, op.QError)
		}
	}
	var hasExecute bool
	for _, p := range rec.Phases {
		if p.Name == "execute" {
			hasExecute = true
		}
	}
	if !hasExecute {
		t.Errorf("record phases lack execute: %+v", rec.Phases)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("metrics scrape: %v", err)
	}
	fams, perr := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if perr != nil {
		t.Fatalf("strict exposition parse: %v", perr)
	}
	if fams["memo_exprs_total"] == nil {
		t.Error("metrics missing memo_exprs_total")
	}
	var qerrSeen bool
	for name, fam := range fams {
		if name == "executor_qerror_milli" && fam.Type == "histogram" {
			qerrSeen = true
		}
	}
	if !qerrSeen {
		t.Error("metrics missing executor_qerror_milli histogram")
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "EXPLAIN ANALYZE") {
		t.Error("stats output suppressed by -metrics-addr")
	}
}

// TestFlagSurface pins the flag names `reorder -h` prints, in the
// order it prints them, so that a new flag — or one left behind by the
// code it configured — is a change to this list, made on purpose.
func TestFlagSurface(t *testing.T) {
	code, _, stderr := runCapture(t, "-h")
	if code != 2 {
		t.Fatalf("-h: exit code = %d, want 2", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr, -1) {
		got = append(got, m[1])
	}
	want := []string{
		"baseline", "data", "demo", "dot", "max-bytes", "max-exprs", "max-rows",
		"metrics-addr", "metrics-linger", "query", "rows", "stats", "statsjson", "timeout",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags %v,\nwant %v", got, want)
	}
}
