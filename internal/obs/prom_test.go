package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// promRegistry builds a registry exercising every exposition shape:
// plain and labeled counters, a gauge, plain and labeled histograms,
// and names needing sanitization.
func promRegistry() *Registry {
	r := NewRegistry()
	r.Counter("optimizer.plans_enumerated").Add(2752)
	r.CounterVec("executor.op_count", "op").With("join.inner").Add(3)
	r.CounterVec("executor.op_count", "op").With("scan").Add(7)
	r.Gauge("optimizer.last_considered").Set(2752)
	h := r.Histogram("executor.op_ns")
	for _, v := range []int64{5, 120, 90000, 1 << 22} {
		h.Observe(v)
	}
	qv := r.HistogramVec("executor.qerror_milli", "op")
	qv.With("scan").Observe(1000)
	qv.With("scan").Observe(3500)
	qv.With("join.inner").Observe(12000)
	return r
}

func TestWritePromParsesStrict(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("strict parse of own output failed: %v\n%s", err, text)
	}

	c := fams["optimizer_plans_enumerated_total"]
	if c == nil || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 2752 {
		t.Fatalf("counter family = %+v", c)
	}
	ops := fams["executor_op_count_total"]
	if ops == nil || len(ops.Samples) != 2 {
		t.Fatalf("labeled counter family = %+v", ops)
	}
	byOp := map[string]float64{}
	for _, s := range ops.Samples {
		byOp[s.Labels["op"]] = s.Value
	}
	if byOp["join.inner"] != 3 || byOp["scan"] != 7 {
		t.Fatalf("labeled counter values = %v", byOp)
	}
	if g := fams["optimizer_last_considered"]; g == nil || g.Type != "gauge" || g.Samples[0].Value != 2752 {
		t.Fatalf("gauge family = %+v", g)
	}

	hist := fams["executor_op_ns"]
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family = %+v", hist)
	}
	var infSeen, sum, count float64
	for _, s := range hist.Samples {
		switch s.Name {
		case "executor_op_ns_bucket":
			if s.Labels["le"] == "+Inf" {
				infSeen = s.Value
			}
		case "executor_op_ns_sum":
			sum = s.Value
		case "executor_op_ns_count":
			count = s.Value
		}
	}
	if infSeen != 4 || count != 4 || sum != float64(5+120+90000+1<<22) {
		t.Fatalf("histogram inf/count/sum = %v/%v/%v", infSeen, count, sum)
	}

	// The labeled histogram has one bucket series per op value, each
	// closed by its own +Inf.
	qerr := fams["executor_qerror_milli"]
	if qerr == nil {
		t.Fatal("labeled histogram family missing")
	}
	infs := map[string]float64{}
	for _, s := range qerr.Samples {
		if s.Name == "executor_qerror_milli_bucket" && s.Labels["le"] == "+Inf" {
			infs[s.Labels["op"]] = s.Value
		}
	}
	if infs["scan"] != 2 || infs["join.inner"] != 1 {
		t.Fatalf("labeled histogram +Inf counts = %v", infs)
	}
}

// TestWritePromEveryLineValid walks the raw output line by line: each
// is a TYPE comment or a sample whose name matches the exposition
// charset — no raw dotted registry names leak through.
func TestWritePromEveryLineValid(t *testing.T) {
	var buf bytes.Buffer
	if err := promRegistry().writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if !validMetricName(s.Name) || strings.Contains(s.Name, ".") {
			t.Fatalf("line %q: invalid sample name %q", line, s.Name)
		}
		for k := range s.Labels {
			if !validLabelName(k) {
				t.Fatalf("line %q: invalid label name %q", line, k)
			}
		}
	}
}

func TestWritePromDeterministic(t *testing.T) {
	r := promRegistry()
	var a, b bytes.Buffer
	if err := r.writeProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.writeProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteProm output is not deterministic")
	}
}

func TestWritePromTypeCollision(t *testing.T) {
	r := NewRegistry()
	// gauge "x" and histogram "x" share the exposition name "x".
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	var buf bytes.Buffer
	if err := r.writeProm(&buf); err == nil {
		t.Fatal("expected a collision error for gauge and histogram sharing a name")
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"executor.op.join.left-outer": "executor_op_join_left_outer",
		"9lives":                      "_9lives",
		"ok_name:sub":                 "ok_name:sub",
		"":                            "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":       "m 1\n",
		"bad type":                 "# TYPE m zebra\nm 1\n",
		"duplicate TYPE":           "# TYPE m counter\nm 1\n# TYPE m counter\n",
		"foreign sample in family": "# TYPE m counter\nother 1\n",
		"duplicate series":         "# TYPE m counter\nm 1\nm 2\n",
		"trailing timestamp":       "# TYPE m counter\nm 1 1234567\n",
		"unterminated label":       "# TYPE m counter\nm{a=\"x 1\n",
		"bad escape":               "# TYPE m counter\nm{a=\"\\q\"} 1\n",
		"unquoted label value":     "# TYPE m counter\nm{a=x} 1\n",
		"duplicate label":          "# TYPE m counter\nm{a=\"1\",a=\"2\"} 1\n",
		"type without samples":     "# TYPE m counter\n",
		"histogram without +Inf":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram inf != count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"histogram le not sorted":  "# TYPE h histogram\nh_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"histogram bucket sans le": "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"invalid metric name":      "# TYPE m-x counter\nm-x 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: expected parse error for %q", name, text)
		}
	}
}

func TestParseExpositionAccepts(t *testing.T) {
	text := "# a freeform comment\n" +
		"# HELP m helpful words\n" +
		"# TYPE m counter\n" +
		"m{a=\"x\"} 1\n" +
		"m{a=\"y\"} 2\n" +
		"# TYPE g gauge\n" +
		"g NaN\n" +
		"# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 2\n" +
		"h_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 12\n" +
		"h_count 3\n"
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if fams["m"].Help != "helpful words" {
		t.Fatalf("help = %q", fams["m"].Help)
	}
	if !math.IsNaN(fams["g"].Samples[0].Value) {
		t.Fatal("NaN gauge not parsed")
	}
	if len(fams["h"].Samples) != 4 {
		t.Fatalf("histogram samples = %d", len(fams["h"].Samples))
	}
}
