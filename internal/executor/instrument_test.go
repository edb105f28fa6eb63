package executor

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/value"
)

// TestInstrumentedSupplierRowCounts runs the Example 1.1 supplier
// query instrumented and checks every operator's measured cardinality
// against ground truth: scans must report exactly the base relation
// sizes, unary operators can only shrink or keep their input, and the
// instrumented result must equal the plain Run result.
func TestInstrumentedSupplierRowCounts(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	reg := obs.NewRegistry()
	got, ann, err := RunInstrumentedAdaptive(q, db, reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSets(want) {
		t.Fatal("instrumented result differs from Run")
	}

	scans := 0
	plan.Walk(q, func(n plan.Node) {
		a := ann[n]
		if a == nil {
			t.Errorf("node %s has no annotation", n)
			return
		}
		if s, ok := n.(*plan.Scan); ok {
			scans++
			if a.Rows != db[s.Rel].Len() {
				t.Errorf("scan %s reported %d rows, relation has %d", s.Rel, a.Rows, db[s.Rel].Len())
			}
		}
		if sel, ok := n.(*plan.Select); ok {
			if in := ann[sel.Input]; in != nil && a.Rows > in.Rows {
				t.Errorf("select emitted %d rows from %d inputs", a.Rows, in.Rows)
			}
		}
	})
	if scans != 3 {
		t.Fatalf("walked %d scans, supplier query has 3", scans)
	}

	// The top node's annotation is the query result cardinality.
	if a := ann[q]; a.Rows != want.Len() {
		t.Errorf("root annotation %d rows, result has %d", a.Rows, want.Len())
	}

	// The outer join hashes its equi conjuncts: the build side is V3's
	// grouped output, and padding occurred iff the result exceeds the
	// matched rows.
	join := q.(*plan.Join)
	ja := ann[join]
	v3Rows := ann[join.R].Rows
	if ja.Extra["hash_build_rows"] != int64(v3Rows) {
		t.Errorf("hash_build_rows = %d, want build side rows %d", ja.Extra["hash_build_rows"], v3Rows)
	}
	if ja.Extra["nested_loop"] != 0 {
		t.Error("equi outer join took the nested-loop fallback")
	}
	if ja.Extra["residual_evals"] == 0 {
		t.Error("join with a residual (qty < 2*aggqty95) recorded no residual evaluations")
	}

	// Aggregate registry figures match the annotations.
	snap := reg.Snapshot()
	if snap.Counters["executor.ops"] != int64(plan.CountNodes(q)) {
		t.Errorf("executor.ops = %d, want %d", snap.Counters["executor.ops"], plan.CountNodes(q))
	}
	if snap.Counters["executor.rows_out"] != ann.TotalRows() {
		t.Errorf("executor.rows_out = %d, want %d", snap.Counters["executor.rows_out"], ann.TotalRows())
	}
	if snap.Counters["executor.op.scan"] != 3 {
		t.Errorf("executor.op.scan = %d, want 3", snap.Counters["executor.op.scan"])
	}
}

// TestNestedLoopFallbackLogged: a join whose predicate has no
// hashable equi conjunct must count the fallback — in the default
// registry on an Exec with no budget to name another.
func TestNestedLoopFallbackLogged(t *testing.T) {
	obs.Default().Reset()
	defer obs.Default().Reset()
	db := randDB(rand.New(rand.NewSource(1)), 5, 3, "r1", "r2")
	pred := expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Column("r2", "x")}
	q := plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("r1"), plan.NewScan("r2"))
	if _, _, err := Exec(q, db, Options{}); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["executor.nested_loop_fallback"] != 1 {
		t.Fatalf("fallback counter = %d, want 1; counters: %v", snap.Counters["executor.nested_loop_fallback"], snap.Counters)
	}
}

// TestInstrumentedNullPadding checks the outer-join padding counter
// on a database where padding provably happens.
func TestInstrumentedNullPadding(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	_, ann, err := RunInstrumentedAdaptive(q, db, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	join := q.(*plan.Join)
	ja := ann[join]
	matched := ja.Rows - int(ja.Extra["null_padded"])
	if matched < 0 {
		t.Errorf("null_padded %d exceeds output %d", ja.Extra["null_padded"], ja.Rows)
	}
	// LOJ output = matched + padded, and every left tuple appears.
	left := ann[join.L].Rows
	if ja.Rows < left {
		t.Errorf("LOJ emitted %d rows, fewer than its %d left inputs", ja.Rows, left)
	}
}
