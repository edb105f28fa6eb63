package reorder

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TestExplainAnalyzeSupplier drives the acceptance scenario: the
// Example 1.1 supplier workload run through ExplainAnalyze must carry
// actual row counts on every operator, optimizer phase timings and
// rule-firing counters, and render them all.
func TestExplainAnalyzeSupplier(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := executor.Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsOut != want.Len() {
		t.Errorf("RowsOut = %d, plain execution returns %d", rep.RowsOut, want.Len())
	}

	node, ann := rep.Plan()
	if node == nil {
		t.Fatal("report has no plan")
	}
	plan.Walk(node, func(n plan.Node) {
		a := ann[n]
		if a == nil {
			t.Errorf("operator %s has no annotation", n)
			return
		}
		if s, ok := n.(*plan.Scan); ok {
			if a.Rows != db[s.Rel].Len() {
				t.Errorf("scan %s: actual rows %d, relation has %d", s.Rel, a.Rows, db[s.Rel].Len())
			}
			if a.EstRows != float64(db[s.Rel].Len()) {
				t.Errorf("scan %s: estimate %.0f, relation has %d", s.Rel, a.EstRows, db[s.Rel].Len())
			}
		}
	})
	if ann[node].Rows != rep.RowsOut {
		t.Errorf("root annotation %d rows, RowsOut %d", ann[node].Rows, rep.RowsOut)
	}

	if len(rep.Phases) != 5 {
		t.Errorf("phases = %v, want analyze/simplify/explore/cost/execute", rep.Phases)
	}
	if len(rep.RuleFirings) == 0 {
		t.Error("supplier query enumerates alternatives but no rule firings recorded")
	}
	if rep.Metrics.Counters["optimizer.plans_enumerated"] != int64(rep.Considered) {
		t.Errorf("plans_enumerated counter %d, Considered %d",
			rep.Metrics.Counters["optimizer.plans_enumerated"], rep.Considered)
	}
	if rep.Metrics.Counters["executor.ops"] != int64(plan.CountNodes(node)) {
		t.Errorf("executor.ops = %d, plan has %d nodes",
			rep.Metrics.Counters["executor.ops"], plan.CountNodes(node))
	}

	out := rep.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "actual rows=", "phases:", "explore", "counters:", "executor.op.scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestExplainAnalyzeBooksAnalyze: EXPLAIN ANALYZE over tables no
// estimator has read yet analyzes every scanned table in its own
// analyze phase, ahead of the optimizer's and execution's, so
// first-use ANALYZE is not booked as optimizer cost.
func TestExplainAnalyzeBooksAnalyze(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	analyzed := obs.Default().Counter("stats.analyze.tables")
	before := analyzed.Value()
	rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range rep.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, "/"); got != "analyze/simplify/explore/cost/execute" {
		t.Errorf("phases = %s, want analyze/simplify/explore/cost/execute", got)
	}
	if n, want := analyzed.Value()-before, int64(len(plan.BaseRels(q))); n != want {
		t.Errorf("%d tables analyzed, want the %d the query scans", n, want)
	}
}

// TestExplainAnalyzeVectorizedBuildField: on the columnar engine every
// hash join line says where its table came from and how probe rows
// looked it up — the supplier plan builds on detail95's shared index
// and hashes its two-column key, and indexes the four BANKRUPT
// suppliers' dense supkeys per request — and a decoded report renders
// the same.
func TestExplainAnalyzeVectorizedBuildField(t *testing.T) {
	rep, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), datagen.Supplier(datagen.DefaultSupplierConfig), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeAnalyzeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{rep.String(), decoded.String()} {
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.Contains(line, "LOJ on "):
				if !strings.Contains(line, " build=index lookup=hash hash_build_rows=20000") {
					t.Errorf("outer join over detail95 does not report its shared index: %s", line)
				}
			case strings.Contains(line, "JOIN on "):
				if !strings.Contains(line, " build=hash lookup=dense hash_build_rows=4") {
					t.Errorf("join over the filtered suppliers does not report a per-request build: %s", line)
				}
			}
		}
		if strings.Contains(text, "build_index") || strings.Contains(text, "dense_lookup") {
			t.Error("raw build_index or dense_lookup annotation leaked into the rendering")
		}
	}
}

// TestExplainAnalyzeJSONRoundTrip: the machine-readable dump must
// reconstruct the same annotated plan — same operators, same actual
// and estimated rows, same counters — and render identically.
func TestExplainAnalyzeJSONRoundTrip(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	rep, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), db, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAnalyzeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	n1, a1 := rep.Plan()
	n2, a2 := back.Plan()
	if n1.String() != n2.String() {
		t.Fatalf("plan changed across round trip:\n%s\n%s", n1, n2)
	}
	// Pair the trees node by node (same pre-order walk) and compare
	// annotations.
	var nodes1, nodes2 []plan.Node
	plan.Walk(n1, func(n plan.Node) { nodes1 = append(nodes1, n) })
	plan.Walk(n2, func(n plan.Node) { nodes2 = append(nodes2, n) })
	if len(nodes1) != len(nodes2) {
		t.Fatalf("node counts differ: %d vs %d", len(nodes1), len(nodes2))
	}
	for i := range nodes1 {
		x, y := a1[nodes1[i]], a2[nodes2[i]]
		if x == nil || y == nil {
			t.Fatalf("node %d lost its annotation (%v vs %v)", i, x, y)
		}
		if x.Rows != y.Rows || x.EstRows != y.EstRows || x.Elapsed != y.Elapsed {
			t.Errorf("node %d annotation changed: %+v vs %+v", i, x, y)
		}
		for k, v := range x.Extra {
			if y.Extra[k] != v {
				t.Errorf("node %d extra %q: %d vs %d", i, k, v, y.Extra[k])
			}
		}
	}
	if back.String() != rep.String() {
		t.Error("rendered report differs after round trip")
	}
	if back.Metrics.Counters["executor.rows_out"] != rep.Metrics.Counters["executor.rows_out"] {
		t.Error("counters lost in round trip")
	}
}

// TestExplainAnalyzeIsolation: two concurrent ExplainAnalyze calls use
// private registries, so their executor.ops counters reflect only
// their own plan.
func TestExplainAnalyzeIsolation(t *testing.T) {
	db := tinyDB()
	q, err := Parse("select t.a, s.c from t left outer join s on t.a = s.a", db)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *AnalyzeReport, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- rep
		}()
	}
	for i := 0; i < 2; i++ {
		rep := <-done
		if rep == nil {
			continue
		}
		node, _ := rep.Plan()
		if got, want := rep.Metrics.Counters["executor.ops"], int64(plan.CountNodes(node)); got != want {
			t.Errorf("executor.ops = %d, want %d (registry leaked across runs)", got, want)
		}
	}
}

// TestExplainAnalyzeBudgetDegradedStillExecutes pins the one-envelope
// semantics: when the exprs budget trips during optimization, the run
// degrades — it must still execute the best-effort plan (the sticky
// exprs trip is not an execution error) and tag the report.
func TestExplainAnalyzeBudgetDegradedStillExecutes(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Workers: 1, Limits: Limits{MaxExprs: 5}})
	if err != nil {
		t.Fatalf("degraded run must execute, not fail: %v", err)
	}
	if rep.Degraded == "" {
		t.Fatal("MaxExprs=5 run did not report degradation")
	}
	want, err := executor.Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsOut != want.Len() {
		t.Errorf("degraded plan returned %d rows, want %d", rep.RowsOut, want.Len())
	}
	if !strings.Contains(rep.String(), "degraded:") {
		t.Error("rendered report is missing the degraded: line")
	}
}
