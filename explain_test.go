package reorder

import (
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
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
	want, err := q.Eval(db)
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
	if rep.Metrics.Counters["memo.exprs"] != int64(rep.Considered) {
		t.Errorf("memo.exprs counter %d, Considered %d",
			rep.Metrics.Counters["memo.exprs"], rep.Considered)
	}
	if len(ann) != countNodes(node) {
		t.Errorf("%d annotations, plan has %d nodes", len(ann), countNodes(node))
	}

	out := rep.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "actual rows=", "phases:", "explore", "counters:", "memo.exprs"} {
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
// suppliers' dense supkeys per request.
func TestExplainAnalyzeVectorizedBuildField(t *testing.T) {
	rep, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), datagen.Supplier(datagen.DefaultSupplierConfig), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.String()
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

// TestExplainAnalyzeViewsAgree: every plan view is built from
// plan.Label, so on the supplier report the JSON plan tree's operators
// (pre-order, read back from the report's JSON), the operator lines of
// the text report (indentation and annotation stripped) and the node
// labels of the DOT rendering are one list, and each JSON node carries
// the rows of the annotation the text prints.
func TestExplainAnalyzeViewsAgree(t *testing.T) {
	rep, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), datagen.Supplier(datagen.DefaultSupplierConfig), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	node, ann := rep.Plan()
	var nodes []plan.Node
	plan.Walk(node, func(n plan.Node) { nodes = append(nodes, n) })

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back AnalyzeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	var fromJSON []string
	var walk func(tn *plan.TreeNode)
	walk = func(tn *plan.TreeNode) {
		i := len(fromJSON)
		fromJSON = append(fromJSON, tn.Op)
		if tn.Actual == nil {
			t.Errorf("plan tree node %q has no actual figures", tn.Op)
		} else if i < len(nodes) && tn.Actual.Rows != ann[nodes[i]].Rows {
			t.Errorf("plan tree node %q: actual.rows %d, annotation %d", tn.Op, tn.Actual.Rows, ann[nodes[i]].Rows)
		}
		for _, c := range tn.Inputs {
			walk(c)
		}
	}
	walk(back.PlanTree)

	// The plan section sits between the first blank line and
	// "counters:".
	text := rep.String()
	section := text[strings.Index(text, "\n\n")+2 : strings.Index(text, "\ncounters:")]
	var fromText []string
	for _, line := range strings.Split(strings.TrimRight(section, "\n"), "\n") {
		line = strings.TrimLeft(line, " ")
		if i := strings.LastIndex(line, "  (actual rows="); i >= 0 {
			line = line[:i]
		}
		fromText = append(fromText, line)
	}

	var fromDOT []string
	for _, line := range strings.Split(plan.DOT(node), "\n") {
		const prefix = " [label="
		i := strings.Index(line, prefix)
		j := strings.LastIndex(line, ", shape=")
		if i < 0 || j < i {
			continue
		}
		label, err := strconv.Unquote(line[i+len(prefix) : j])
		if err != nil {
			t.Fatalf("DOT label %s: %v", line, err)
		}
		fromDOT = append(fromDOT, label)
	}

	if len(fromJSON) != len(nodes) {
		t.Fatalf("plan tree has %d operators, plan %d", len(fromJSON), len(nodes))
	}
	if !slices.Equal(fromJSON, fromText) {
		t.Errorf("JSON operators %q,\ntext lines %q", fromJSON, fromText)
	}
	if !slices.Equal(fromJSON, fromDOT) {
		t.Errorf("JSON operators %q,\nDOT labels %q", fromJSON, fromDOT)
	}
}

// TestExplainAnalyzeIsolation: two concurrent ExplainAnalyze calls use
// private registries, so each report's optimizer.runs counts only its
// own run and its memo.exprs only its own expressions.
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
		if got := rep.Metrics.Counters["optimizer.runs"]; got != 1 {
			t.Errorf("optimizer.runs = %d, want 1 (registry leaked across runs)", got)
		}
		if got, want := rep.Metrics.Counters["memo.exprs"], int64(rep.Considered); got != want {
			t.Errorf("memo.exprs = %d, want %d (registry leaked across runs)", got, want)
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
	rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Limits: Limits{MaxExprs: 5}})
	if err != nil {
		t.Fatalf("degraded run must execute, not fail: %v", err)
	}
	if rep.Degraded == "" {
		t.Fatal("MaxExprs=5 run did not report degradation")
	}
	want, err := q.Eval(db)
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
