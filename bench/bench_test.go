package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// streamBytes renders the first n requests of every client's stream.
func streamBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	tpls := w.templates()
	for client := -1; client < clients; client++ {
		s := newStream(w, tpls, seed, client)
		for i := 0; i < n; i++ {
			r := s.next()
			if err := enc.Encode([]any{client, r.tpl, r.sql, r.cache}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 7, 200), streamBytes(t, w, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different request streams", w.name)
		}
		if c := streamBytes(t, w, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
	}
}

func TestEvenMixKeepsTemplateSharesFixed(t *testing.T) {
	w := findWorkload("cold_plan")
	tpls := w.templates()
	s := newStream(w, tpls, 1, 0)
	count := make([]int, len(tpls))
	for i := 0; i < 10*len(tpls); i++ {
		count[s.next().tpl]++
	}
	for i, c := range count {
		if c != 10 {
			t.Errorf("template %d played %d times in 10 blocks, want 10", i, c)
		}
	}
}

// TestRepetitionsPlayWholeBlocks pins what makes two repetitions
// comparable: a stream is at a block start before its first request and
// after every whole block, and nowhere in between.
func TestRepetitionsPlayWholeBlocks(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, w.templates(), 1, 0)
		for block := 0; block < 3; block++ {
			if !s.atBlockStart() {
				t.Fatalf("%s: block %d does not start at a block start", w.name, block)
			}
			s.next()
			for !s.atBlockStart() {
				s.next()
			}
		}
	}
	w := findWorkload("hit_scan")
	s := newStream(w, w.templates(), 1, 0)
	for i, n := 0, len(w.templates()); i < n-1; i++ {
		if s.next(); s.atBlockStart() {
			t.Errorf("an even-mix block of %d templates ended after %d requests", n, i+1)
		}
	}
}

func TestQuieterHalfKeepsTheFasterRepetitions(t *testing.T) {
	qps := []float64{100, 60, 101, 99, 55, 102}
	lats := [][]float64{{3, 1}, {90}, {2}, {91}, {92}, {5, 4}}
	got := quieterHalf(qps, lats)
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("quieterHalf = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quieterHalf = %v, want %v", got, want)
		}
	}
	// A single repetition is its own quieter half.
	if got := quieterHalf([]float64{7}, [][]float64{{2, 1}}); len(got) != 2 || got[0] != 1 {
		t.Errorf("quieterHalf of one repetition = %v, want [1 2]", got)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	vals := make([]float64, 199)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := percentile(vals, 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	vals = append(vals, 199)
	v, err := percentile(vals, 0.95)
	if err != nil || v != 189 {
		t.Errorf("p95 of 0..199 = %v, %v; want 189 with 10 samples beyond", v, err)
	}
	if v, err := percentile(vals, 0.50); err != nil || v != 99 {
		t.Errorf("p50 of 0..199 = %v, %v; want 99", v, err)
	}
	if _, err := percentile(vals[:15], 0.50); err == nil {
		t.Error("p50 of 15 samples has 7 beyond it and must be refused")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	m := summarize(metricDef{"x", "ms", "lower", 0.10}, 4, []float64{1, 2, 4, 8, 16})
	if !m.Unresolved {
		t.Error("a spread of 10.5/4 against a bound of 10% must be unresolved")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "a1", Parent: 1, Start: 12, End: 20},
		{Name: "b", Parent: 0, Start: 25, End: 50},  // overlaps a by 5
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "other", Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 8, 8, 25, 30, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON keeps the program and the declaration at
// the repository root from drifting apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the form %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, decl.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program has %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, def := range endToEnd {
		unique(def.name)
		d := decl.EndToEnd[i]
		if d.Name != def.name || d.Unit != def.unit || d.Better != def.better || d.Bound != def.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, d, def)
		}
		if def.bound <= 0 || def.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.name, def.bound)
		}
		setup = setup || (def.name == "setup_s" && def.unit == "s" && def.better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for i, def := range perLayer {
		unique(def.name)
		d := decl.PerLayer[i]
		if d.Name != def.name || d.Unit != def.unit || d.Better != def.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, d, def)
		}
		if !strings.Contains(def.name, ".") {
			t.Errorf("%s: per-layer metrics are named <module>.<metric>", def.name)
		}
	}
}

// resultLines returns the JSON result lines of a run's output.
func resultLines(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, `{"correct"`) {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("bad result line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	return lines
}

// TestSmoke runs all four workloads, both passes, at smoke size, so a
// change to the public API that breaks the benchmark fails here.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != exitOK {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != 2*len(workloads) {
		t.Fatalf("got %d result lines, want %d", len(lines), 2*len(workloads))
	}
	for i, l := range lines {
		want := endToEnd
		if i%2 == 1 {
			want = perLayer
		}
		if !l.Correct || l.Failed != 0 || l.Attempted < 1 || len(l.Metrics) != len(want) {
			t.Errorf("result line %d: correct=%v attempted=%d failed=%d metrics=%d, want %d metrics and no failure",
				i, l.Correct, l.Attempted, l.Failed, len(l.Metrics), len(want))
		}
		for _, def := range want {
			if m, ok := l.Metrics[def.name]; !ok || m.Unit != def.unit {
				t.Errorf("result line %d: metric %s missing or in unit %q", i, def.name, m.Unit)
			}
		}
	}
	var spans []map[string]any
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Errorf("trace.json: %d spans, %v", len(spans), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
		t.Error(err)
	}
}

// TestWrongAnswerFailsTheCommand corrupts one expected answer and
// expects the run to count it and exit non-zero.
func TestWrongAnswerFailsTheCommand(t *testing.T) {
	o := options{seed: 3, seconds: 0.3, reps: 1, smoke: true, tamper: true}
	var stdout bytes.Buffer
	code := execute([]*workload{findWorkload("hit_point")}, o, 0, t.TempDir(), &stdout, io.Discard)
	if code == exitOK {
		t.Fatalf("a wrong answer left the exit code at 0\n%s", stdout.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != 1 || lines[0].Correct || lines[0].Failed == 0 {
		t.Errorf("result line %+v, want correct=false and failed>0", lines)
	}
	if !strings.Contains(stdout.String(), "wrong answer") {
		t.Errorf("the failure is not reported:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-reps", "0"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		if code := run(args, io.Discard, io.Discard); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}
