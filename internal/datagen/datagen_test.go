package datagen

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestSupplierShapes(t *testing.T) {
	cfg := SupplierConfig{Suppliers: 20, Parts: 5, AggRows: 50, DetailRows: 200, BankruptFrac: 0.1, Seed: 1}
	db := Supplier(cfg)
	if got := db["sup_detail"].Len(); got != 20 {
		t.Errorf("sup_detail rows = %d", got)
	}
	if got := db["agg94"].Len(); got != 50 {
		t.Errorf("agg94 rows = %d", got)
	}
	if got := db["detail95"].Len(); got != 200 {
		t.Errorf("detail95 rows = %d", got)
	}
	// Deterministic: same seed, same data.
	db2 := Supplier(cfg)
	if !db["agg94"].EqualAsSets(db2["agg94"]) {
		t.Error("generation is not deterministic")
	}
	bankrupt := 0
	sup := db["sup_detail"]
	for _, tu := range sup.Tuples() {
		if tu[sup.Schema().IndexOf(schema.Attr("sup_detail", "suprating"))].Str() == "BANKRUPT" {
			bankrupt++
		}
	}
	if bankrupt != 2 {
		t.Errorf("bankrupt suppliers = %d, want 2", bankrupt)
	}
}

// TestSupplierQueryPushUpEquivalence is the correctness backbone of
// experiment E7: the Example 1.1 query as written and its
// aggregation-pulled-up reordering produce identical results on the
// generated workload.
func TestSupplierQueryPushUpEquivalence(t *testing.T) {
	cfg := SupplierConfig{Suppliers: 30, Parts: 6, AggRows: 80, DetailRows: 500, BankruptFrac: 0.1, Seed: 7}
	db := Supplier(cfg)
	q := SupplierQuery()
	pushed, err := core.PushUpGroupBy(q.(*plan.Join), db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pushed.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualAsSets(want) {
		t.Fatalf("pushed-up supplier query differs:\nas written %d rows, pushed %d rows", want.Len(), got.Len())
	}
	if want.Len() == 0 {
		t.Error("workload produced an empty result; experiment would be vacuous")
	}
}

func TestExample21Database(t *testing.T) {
	db := Example21()
	if db["r1"].Len() != 3 || db["r2"].Len() != 1 || db["r3"].Len() != 2 {
		t.Errorf("unexpected Example 2.1 sizes")
	}
	v := db["r1"].Tuple(0)[db["r1"].Schema().IndexOf(schema.Attr("r1", "a"))]
	if v.Kind() != value.KindString || v.Str() != "a1" {
		t.Errorf("r1[0].a = %v", v)
	}
}

func TestChain(t *testing.T) {
	db := Chain(4, UniformConfig{Rows: 10, Domain: 5}, 3)
	if len(db) != 4 {
		t.Fatalf("chain has %d relations", len(db))
	}
	for i := 1; i <= 4; i++ {
		name := "r" + string(rune('0'+i))
		if db[name] == nil || db[name].Len() != 10 {
			t.Errorf("relation %s missing or wrong size", name)
		}
	}
}

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestZipfSkew(t *testing.T) {
	rng := newTestRand(9)
	r := Zipf(rng, "z", 5000, 100, 1.5)
	if r.Len() != 5000 {
		t.Fatalf("rows = %d", r.Len())
	}
	// The most frequent value should dominate: count value 0.
	zero := 0
	for _, tu := range r.Tuples() {
		if tu[r.Schema().IndexOf(schema.Attr("z", "x"))].Int() == 0 {
			zero++
		}
	}
	if zero < 1500 {
		t.Errorf("Zipf head too light: %d/5000 zeros", zero)
	}
}

func TestStar(t *testing.T) {
	db := Star(3, UniformConfig{Rows: 10, Domain: 5}, 4)
	if len(db) != 4 {
		t.Fatalf("star relations = %d", len(db))
	}
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		if db[name] == nil {
			t.Errorf("missing %s", name)
		}
	}
}
