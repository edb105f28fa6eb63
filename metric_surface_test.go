package reorder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// metricFamilies is every metric family the metric-surface smoke
// writes to the observer registries, dynamic suffixes folded by
// metricFamily. The bench reads optimizer.runs, memo.groups,
// memo.exprs, memo.pruned, memo.order.enforced,
// exec.spill.partitions, exec.vector.fallback.<op>, the plancache
// series and feedback.{drift_trips,replans,corrections}.
var metricFamilies = []string{
	"exec.spill.joins",
	"exec.spill.partitions",
	"exec.spill.recursions",
	"exec.vector.fallback.<op>",
	"exec.vector.select.generic",
	"executor.qerror_milli",
	"feedback.corrections",
	"feedback.drift_trips",
	"feedback.replans",
	"feedback.store.entries",
	"feedback.store.evictions",
	"feedback.store.lookup_hits",
	"guard.budget_trips.<k>",
	"guard.degraded",
	"guard.queue_wait_milli",
	"memo.capped",
	"memo.child_bindings",
	"memo.dedup_hits",
	"memo.exprs",
	"memo.extract_ns",
	"memo.groups",
	"memo.merges",
	"memo.order.enforced",
	"memo.pruned",
	"memo.waves",
	"optimizer.phase.<p>_ns",
	"optimizer.rule_admitted.<rule>",
	"optimizer.rule_applied.<rule>",
	"optimizer.runs",
	"plancache.bytes",
	"plancache.entries",
	"plancache.evictions",
	"plancache.hits",
	"plancache.misses",
	"plancache.refreshes",
	"plancache.singleflight_waits",
	"serve.queue_depth",
	"serve.requests",
	"serve.shed",
}

// metricFamily folds a registry name to its family: the label set is
// dropped and the suffixes that vary per rule, phase, budget kind or
// operator become placeholders.
func metricFamily(name string) string {
	name, _, _ = strings.Cut(name, "{")
	for _, p := range []struct{ prefix, family string }{
		{"optimizer.rule_applied.", "optimizer.rule_applied.<rule>"},
		{"optimizer.rule_admitted.", "optimizer.rule_admitted.<rule>"},
		{"guard.budget_trips.", "guard.budget_trips.<k>"},
		{"exec.vector.fallback.", "exec.vector.fallback.<op>"},
	} {
		if strings.HasPrefix(name, p.prefix) {
			return p.family
		}
	}
	if strings.HasPrefix(name, "optimizer.phase.") && strings.HasSuffix(name, "_ns") {
		return "optimizer.phase.<p>_ns"
	}
	return name
}

// familiesOf returns the sorted metric families of the registries.
func familiesOf(regs ...*obs.Registry) []string {
	var out []string
	for _, r := range regs {
		for _, name := range metricNames(r) {
			out = append(out, metricFamily(name))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// metricNames returns the registry's sorted metric names, unfolded.
func metricNames(r *obs.Registry) []string {
	s := r.Snapshot()
	var out []string
	for name := range s.Counters {
		out = append(out, name)
	}
	for name := range s.Gauges {
		out = append(out, name)
	}
	for name := range s.Histograms {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestMetricSurface pins the metric families a fixed smoke writes, as
// TestOptionSurface pins the options: a static service serves each
// hit_point template and an ORDER BY template as a miss and then as
// hits, plus one bypass request under a tenant whose expression budget
// degrades its optimization; a feedback service serves a
// misestimated template until it re-plans; and an EXPLAIN ANALYZE
// observed by the static service runs under a byte budget that
// partitions its join. A new signal, or one left behind by the code
// that wrote it, is then a change to metricFamilies and to README's
// metrics table, made on purpose. Once warm, serving each hit_point
// shape again adds no metric name and leaves its flight record without
// counters: a static cache hit meters nothing that another signal
// already holds.
func TestMetricSurface(t *testing.T) {
	ctx := context.Background()
	static := newTestService(t, ServiceConfig{
		DB:      shapeMemoDB(),
		Tenants: map[string]Limits{"tight": {MaxExprs: 5}},
	})
	serve := func(h http.Handler, req Request) Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.SQL, rec.Code, rec.Body)
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	sh := static.Handler()
	templates := []string{"select r1.x, r1.y from r1 where r1.y < %v order by r1.x"}
	for _, s := range hitPointShapes {
		templates = append(templates, s.text)
	}
	for _, text := range templates {
		for i, lit := range []int{7, 8, 9} {
			want := "hit"
			if i == 0 {
				want = "miss"
			}
			if resp := serve(sh, Request{SQL: fmt.Sprintf(text, lit)}); resp.CacheStatus != want {
				t.Fatalf("%s with %d: cache %s, want %s", text, lit, resp.CacheStatus, want)
			}
		}
	}
	bypass := serve(sh, Request{SQL: fmt.Sprintf(hitPointShapes[0].text, 10), Cache: "bypass", Tenant: "tight"})
	if bypass.CacheStatus != "bypass" || bypass.Degraded == "" {
		t.Fatalf("tight bypass request: cache %s, degraded %q; want a degraded bypass", bypass.CacheStatus, bypass.Degraded)
	}

	// Warm static hits add no metric name, and their flight records
	// carry no counters.
	reg := static.Observer().Registry
	before := metricNames(reg)
	for _, s := range hitPointShapes {
		serve(sh, Request{SQL: fmt.Sprintf(s.text, 11)})
	}
	if after := metricNames(reg); !slices.Equal(after, before) {
		t.Errorf("warm hits added metric names:\nbefore %v\nafter  %v", before, after)
	}
	for _, rec := range static.Observer().Flight.Snapshot()[:len(hitPointShapes)] { // newest first
		if rec.Counters != nil {
			t.Errorf("warm hit %q: flight record counters %v, want nil", rec.Query, rec.Counters)
		}
	}

	if _, err := ExplainAnalyze(ctx, datagen.SupplierQuery(), datagen.Supplier(datagen.DefaultSupplierConfig),
		AnalyzeOptions{Limits: Limits{MaxBytes: 200_000}, Observer: static.Observer()}); err != nil {
		t.Fatal(err)
	}

	fb := feedbackService(t, true, 2)
	fh := fb.Handler()
	replanned := false
	for i := 0; i < 12 && !replanned; i++ {
		replanned = serve(fh, Request{SQL: skewQuery}).Replanned
	}
	if !replanned {
		t.Fatal("the feedback template never re-planned")
	}

	got := familiesOf(reg, fb.Observer().Registry)
	if !slices.Equal(got, metricFamilies) {
		t.Errorf("metric families %q,\nwant %q", got, metricFamilies)
	}

	// README's metrics table names every family.
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	table := metricsTable(t, string(readme))
	for _, f := range metricFamilies {
		if !table[f] {
			t.Errorf("README's metrics table does not name %s", f)
		}
	}
}

// metricsTable returns the backticked names in README's metrics
// table: the rows under the header that begins "| metric |".
func metricsTable(t *testing.T, readme string) map[string]bool {
	t.Helper()
	tick := regexp.MustCompile("`([^`]+)`")
	names := map[string]bool{}
	in := false
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "| metric |"):
			if in || len(names) > 0 {
				t.Fatal("README has more than one metrics table")
			}
			in = true
		case in && !strings.HasPrefix(line, "|"):
			in = false
		case in:
			cell := strings.SplitN(strings.TrimPrefix(line, "|"), "|", 2)[0]
			for _, m := range tick.FindAllStringSubmatch(cell, -1) {
				names[m[1]] = true
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("README has no metrics table (a header beginning \"| metric |\")")
	}
	return names
}
