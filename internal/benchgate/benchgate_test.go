package benchgate

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func res(ms float64) Result { return Result{Iterations: 1, MsPerOp: ms} }

// TestCheckRatioAndFloor: a gate passes when candidate ≤
// baseline×tolerance + floor, and the floor is what lets a fixed
// per-operation overhead through once the operation is fast.
func TestCheckRatioAndFloor(t *testing.T) {
	cases := []struct {
		name                 string
		cand, base, tol, flr float64
		pass                 bool
	}{
		{"within ratio", 1.09, 1.0, 1.10, 0, true},
		{"at the ratio", 1.10, 1.0, 1.10, 0, true},
		{"over the ratio", 1.20, 1.0, 1.10, 0, false},
		{"fast op, fixed 60us overhead, no floor", 0.67, 0.61, 1.02, 0, false},
		{"fast op, fixed 60us overhead, 150us floor", 0.67, 0.61, 1.02, 0.15, true},
		{"floor does not hide a real regression", 0.90, 0.61, 1.02, 0.15, false},
		{"slow op, floor is negligible", 62.0, 60.0, 1.02, 0.05, false},
		{"speed-up gate (>=3x), no floor", 7.0, 23.83, 1.0 / 3, 0, true},
	}
	for _, c := range cases {
		err := Check(Gate{Label: c.name, Candidate: res(c.cand), Baseline: res(c.base), Tolerance: c.tol, Floor: c.flr})
		if (err == nil) != c.pass {
			t.Errorf("%s: Check = %v, want pass=%v", c.name, err, c.pass)
		}
		if err != nil && !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: failure does not name the gate: %v", c.name, err)
		}
	}
}

// TestCheckSkipsFilteredAndReportsFirst: a zero-iteration side (the
// workload was filtered out) disables its gate; otherwise the first
// failing gate, in order, is the one reported.
func TestCheckSkipsFilteredAndReportsFirst(t *testing.T) {
	slow, base := res(5), res(1)
	if err := Check(
		Gate{Label: "no candidate", Candidate: Result{}, Baseline: base, Tolerance: 1},
		Gate{Label: "no baseline", Candidate: slow, Baseline: Result{}, Tolerance: 1},
	); err != nil {
		t.Fatalf("filtered gates must be skipped: %v", err)
	}
	err := Check(
		Gate{Label: "fine", Candidate: base, Baseline: base, Tolerance: 1},
		Gate{Label: "first", Candidate: slow, Baseline: base, Tolerance: 1},
		Gate{Label: "second", Candidate: slow, Baseline: base, Tolerance: 1},
	)
	if err == nil || !strings.Contains(err.Error(), "first") {
		t.Fatalf("want the first failing gate, got %v", err)
	}
}

// TestRunRecordsResult: Run measures through testing.Benchmark, stamps
// the engine, and appends to the shared result list; RunBest keeps one
// entry for its rounds.
func TestRunRecordsResult(t *testing.T) {
	// testing.Benchmark honours -test.benchtime; a fixed iteration count
	// keeps this test off the default one second per measurement.
	if err := flag.Set("test.benchtime", "5x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = flag.Set("test.benchtime", "1s") }) // the default always parses
	var results []Result
	sink := 0
	work := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += i
		}
	}
	r := RunEngine("w", "vector", &results, work)
	best := RunBest("w/best", &results, 2, work)
	if len(results) != 2 || results[0] != r || results[1] != best {
		t.Fatalf("results = %+v", results)
	}
	if r.Name != "w" || r.Engine != "vector" || r.Iterations == 0 || r.MsPerOp != float64(r.NsPerOp)/1e6 {
		t.Fatalf("bad result %+v", r)
	}
}

// TestWriteJSONAndDeltas: the report round-trips with the embedded
// header first, and Deltas reports only counters that moved.
func TestWriteJSONAndDeltas(t *testing.T) {
	type report struct {
		Header
		Extra float64 `json:"extra"`
	}
	path := filepath.Join(t.TempDir(), "r.json")
	in := report{Header: NewHeader([]SeedBaseline{{Name: "s", MsPerOp: 2}}, []Result{res(1)}), Extra: 3}
	if err := WriteJSON(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "{\n  \"gomaxprocs\"") || !strings.HasSuffix(string(data), "}\n") {
		t.Fatalf("unexpected layout:\n%s", data)
	}
	var out report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Extra != 3 || len(out.Results) != 1 || out.SeedBaselines[0].Name != "s" || out.GoVersion == "" {
		t.Fatalf("round trip lost fields: %+v", out)
	}

	if d := Deltas(func() {}); d["benchgate.test.moved"] != 0 {
		t.Fatalf("idle Deltas reported %v", d)
	}
	d := Deltas(func() { obs.Default().Counter("benchgate.test.moved").Add(3) })
	if d["benchgate.test.moved"] != 3 {
		t.Fatalf("Deltas = %v, want benchgate.test.moved=3", d)
	}
}
