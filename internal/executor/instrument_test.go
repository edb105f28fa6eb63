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
// instrumented result must equal plan.Node.Eval's.
func TestInstrumentedSupplierRowCounts(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	reg := obs.NewRegistry()
	got, ann, err := execRows(q, db, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSets(want) {
		t.Fatal("instrumented result differs from plan.Node.Eval")
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

	// One annotation per operator, each holding the reference engine's
	// output size of its subtree, so TotalRows is the volume the
	// operators produced.
	if len(ann) != countNodes(q) {
		t.Errorf("%d annotations, want %d", len(ann), countNodes(q))
	}
	plan.Walk(q, func(n plan.Node) {
		ref, err := n.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if a := ann[n]; a != nil && a.Rows != ref.Len() {
			t.Errorf("%s: annotation %d rows, plan.Node.Eval gives %d", OpName(n), a.Rows, ref.Len())
		}
	})
}

// TestNestedLoopFallbackLogged: a join whose predicate has no
// hashable equi conjunct must count the fallback — in the default
// registry on an Exec with no budget to name another.
func TestNestedLoopFallbackLogged(t *testing.T) {
	before := obs.Default().Counter("executor.nested_loop_fallback").Value()
	db := randDB(rand.New(rand.NewSource(1)), 5, 3, "r1", "r2")
	pred := expr.Cmp{Op: value.LT, L: expr.Column("r1", "x"), R: expr.Column("r2", "x")}
	q := plan.NewJoin(plan.InnerJoin, pred, plan.NewScan("r1"), plan.NewScan("r2"))
	if _, _, err := Exec(q, db, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default().Counter("executor.nested_loop_fallback").Value(); got != before+1 {
		t.Fatalf("fallback counter = %d, want %d", got, before+1)
	}
}

// TestInstrumentedNullPadding checks the outer-join padding counter
// on a database where padding provably happens.
func TestInstrumentedNullPadding(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	_, ann, err := Exec(q, db, Options{Obs: obs.NewRegistry()})
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

// countNodes returns the number of operators in the tree.
func countNodes(n plan.Node) int {
	count := 0
	plan.Walk(n, func(plan.Node) { count++ })
	return count
}
