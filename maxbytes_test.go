package reorder

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// maxBytesSQL joins agg94 to detail95 on both keys and keeps a few
// rows: under maxBytesLimit the join's build side cannot be held in
// memory, but its output can.
const (
	maxBytesSQL = "select agg94.supkey, detail95.qty from agg94, detail95 " +
		"where agg94.supkey = detail95.supkey and agg94.partkey = detail95.partkey and agg94.qty = 1"
	maxBytesLimit = 200_000
)

// TestMaxBytesPartitionsEverywhere: MaxBytes means the same at every
// entry point. One join whose build side the byte budget cannot hold
// runs through the static service, the feedback service,
// reorder.Execute and ExplainAnalyze; each returns the unbudgeted rows
// and counts the partitions it joined on exec.spill.partitions.
func TestMaxBytesPartitionsEverywhere(t *testing.T) {
	ctx := context.Background()
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q, err := Parse(maxBytesSQL, db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(ctx, q, db, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("test premise: the join returns no rows")
	}
	limits := Limits{MaxBytes: maxBytesLimit}
	partitions := func(reg *obs.Registry) int64 { return reg.Snapshot().Counters["exec.spill.partitions"] }

	for _, feedback := range []bool{false, true} {
		svc := newTestService(t, ServiceConfig{DB: db, Feedback: feedback, DefaultLimits: limits})
		resp, err := svc.Query(ctx, Request{SQL: maxBytesSQL})
		if err != nil {
			t.Errorf("service (feedback=%v): %v", feedback, err)
			continue
		}
		sameRows(t, "service", want, resp)
		if n := partitions(svc.Observer().Registry); n == 0 {
			t.Errorf("service (feedback=%v): exec.spill.partitions = 0", feedback)
		}
	}

	// Execute runs the optimized plan, as the CLI does: the lowered one
	// joins before it selects, and its join output alone overruns the
	// budget.
	res, err := Optimize(ctx, q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := partitions(obs.Default())
	if got, err := Execute(ctx, res.Best.Plan, db, limits); err != nil {
		t.Errorf("Execute: %v", err)
	} else if !got.EqualAsMultisets(want) {
		t.Error("Execute: rows differ from the unbudgeted run")
	} else if partitions(obs.Default()) == before {
		t.Error("Execute: exec.spill.partitions did not move")
	}

	rep, err := ExplainAnalyze(ctx, q, db, AnalyzeOptions{Limits: limits})
	if err != nil {
		t.Fatalf("ExplainAnalyze: %v", err)
	}
	if rep.RowsOut != want.Len() {
		t.Errorf("ExplainAnalyze: %d rows, want %d", rep.RowsOut, want.Len())
	}
	if rep.Metrics.Counters["exec.spill.partitions"] == 0 {
		t.Error("ExplainAnalyze: exec.spill.partitions = 0")
	}
}
