package reorder

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/plan"
	"repro/internal/sql"
)

// flightRecords reads the records rec holds, newest first, from its
// /debug/queries dump.
func flightRecords(t *testing.T, rec *flight.Recorder) []flight.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Records []flight.Record `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	return dump.Records
}

func TestExplainAnalyzeObserved(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	ob := NewObserver(8)
	rep, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}

	// One flight record, stamped and fully populated.
	if len(flightRecords(t, ob.Flight)) != 1 {
		t.Fatalf("flight records = %d, want 1", len(flightRecords(t, ob.Flight)))
	}
	rec := flightRecords(t, ob.Flight)[0]
	if rec.Query != plan.Key(q) {
		t.Errorf("record query = %q, want %q", rec.Query, plan.Key(q))
	}
	node, _ := rep.Plan()
	if rec.PlanKey != plan.Key(node) {
		t.Errorf("record plan key = %q, want %q", rec.PlanKey, plan.Key(node))
	}
	if rec.Hash == 0 || rec.Seq != 1 || rec.DurNs <= 0 {
		t.Errorf("record not stamped: hash=%d seq=%d dur=%d", rec.Hash, rec.Seq, rec.DurNs)
	}
	if rec.RowsOut != rep.RowsOut {
		t.Errorf("record rows = %d, report rows = %d", rec.RowsOut, rep.RowsOut)
	}
	if len(rec.Ops) != countNodes(node) {
		t.Errorf("record has %d op rows, plan has %d nodes", len(rec.Ops), countNodes(node))
	}
	opTypes := map[string]bool{}
	for _, op := range rec.Ops {
		if op.Key == "" || op.Op == "" {
			t.Errorf("op row missing key/op: %+v", op)
		}
		if op.QError < 1 {
			t.Errorf("op %s q-error %v < 1", op.Op, op.QError)
		}
		opTypes[op.Op] = true
	}
	if !opTypes["scan"] {
		t.Errorf("no scan op row; ops = %v", opTypes)
	}
	// The record carries the report's phase list, timed once: first-use
	// ANALYZE, the optimizer's three phases and execution.
	if !slices.Equal(rec.Phases, rep.Phases) {
		t.Errorf("record phases %v, report phases %v", rec.Phases, rep.Phases)
	}
	var names []string
	for _, p := range rec.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, "/"); got != "analyze/simplify/explore/cost/execute" {
		t.Errorf("record phases = %s, want analyze/simplify/explore/cost/execute", got)
	}
	// The counter subset carries optimizer provenance, not executor noise.
	if rec.Counters["memo.exprs"] == 0 {
		t.Errorf("record counters missing memo.exprs: %v", rec.Counters)
	}
	for name := range rec.Counters {
		if strings.HasPrefix(name, "executor.") {
			t.Errorf("executor counter %q leaked into the flight subset", name)
		}
	}

	// The aggregate registry got the merged run, including per-op-type
	// q-error histograms.
	agg := ob.Registry.Snapshot()
	if agg.Counters["memo.exprs"] != int64(rep.Considered) {
		t.Errorf("aggregate memo.exprs = %d, want %d",
			agg.Counters["memo.exprs"], rep.Considered)
	}
	qerrSeen := 0
	for name, h := range agg.Histograms {
		base, labels, _ := strings.Cut(name, "{")
		if base != "executor.qerror_milli" {
			continue
		}
		qerrSeen++
		if !strings.HasPrefix(labels, `op="`) {
			t.Errorf("q-error histogram %q not labeled by op", name)
		}
		// milli-q-error is >= 1000 by construction (q-error >= 1).
		if h.Count == 0 || h.Min < 1000 {
			t.Errorf("q-error histogram %q: count=%d min=%d", name, h.Count, h.Min)
		}
	}
	if qerrSeen == 0 {
		t.Fatal("no per-op q-error histograms in the aggregate registry")
	}

	// The report's own registry stays private: a second observed run
	// doubles the aggregate but not the report snapshot.
	rep2, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Observer: ob})
	if err != nil {
		t.Fatal(err)
	}
	if len(flightRecords(t, ob.Flight)) != 2 {
		t.Fatalf("flight records after second run = %d", len(flightRecords(t, ob.Flight)))
	}
	if got := ob.Registry.Snapshot().Counters["memo.exprs"]; got != int64(rep.Considered+rep2.Considered) {
		t.Errorf("aggregate after two runs = %d, want %d", got, rep.Considered+rep2.Considered)
	}
	if rep2.Metrics.Counters["memo.exprs"] != int64(rep2.Considered) {
		t.Error("second report's private metrics polluted by the aggregate")
	}
}

func TestExplainAnalyzeObservedNilObserver(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	if _, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), db, AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverRecordsFailedRuns(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	ob := NewObserver(4)
	// A one-row execution budget aborts the instrumented run.
	_, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Limits: Limits{MaxRows: 1}, Observer: ob})
	if err == nil {
		t.Fatal("expected a budget error")
	}
	if len(flightRecords(t, ob.Flight)) != 1 {
		t.Fatalf("failed run not recorded: len = %d", len(flightRecords(t, ob.Flight)))
	}
	rec := flightRecords(t, ob.Flight)[0]
	if rec.Error == "" {
		t.Fatal("record has no error")
	}
	trips := strings.Join(rec.BudgetTrips, ",")
	if !strings.Contains(trips, "rows") {
		t.Errorf("budget trips = %q, want rows", trips)
	}
}

// TestObserverServiceRecordHash: a served request's flight record
// carries the request's SQL text as Query and its template's
// plan.Fingerprint as Hash, on the full front end (the first request
// of a shape) and on a shape-memo hit alike; a request that fails
// before it has a template — unknown relation or unparsable SQL —
// carries its text and no hash.
func TestObserverServiceRecordHash(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	stmt, err := sql.Parse("select b from t where a = 0")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sql.Parameterize(stmt)
	node, err := sql.Lower(tmpl, svc.db)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"select b from t where a = 1", "select b from t where a = 2", "select b from nosuch", "selec b from t"}
	for _, q := range queries {
		_, _ = svc.Query(context.Background(), Request{SQL: q})
	}
	recs := flightRecords(t, svc.Observer().Flight)
	if len(recs) != len(queries) {
		t.Fatalf("%d flight records, want %d", len(recs), len(queries))
	}
	for _, rec := range recs {
		if !slices.Contains(queries, rec.Query) {
			t.Errorf("record Query %q is not a request's SQL text", rec.Query)
		}
		want := plan.Fingerprint(node)
		if rec.Error != "" {
			want = 0
		}
		if rec.Hash != want {
			t.Errorf("%q: record hash %d, want %d", rec.Query, rec.Hash, want)
		}
	}
}

// TestObserverScrapeWhileExecuting scrapes /metrics and /debug/queries
// while observed queries run concurrently; every response must parse.
// Meaningful under -race.
func TestObserverScrapeWhileExecuting(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	q := datagen.SupplierQuery()
	ob := NewObserver(16)
	srv := httptest.NewServer(ob.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var runners sync.WaitGroup
	for w := 0; w < 2; w++ {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ExplainAnalyze(context.Background(), q, db, AnalyzeOptions{Observer: ob}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for i := 0; i < 10; i++ {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		_, perr := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if perr != nil {
			close(stop)
			runners.Wait()
			t.Fatalf("scrape %d failed strict parse: %v", i, perr)
		}

		resp, err = http.Get(srv.URL + "/debug/queries")
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Capacity int               `json:"capacity"`
			Records  []json.RawMessage `json:"records"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if derr != nil {
			close(stop)
			runners.Wait()
			t.Fatalf("queries dump %d not valid JSON: %v", i, derr)
		}
		if dump.Capacity != 16 || len(dump.Records) > 16 {
			close(stop)
			runners.Wait()
			t.Fatalf("dump %d out of bounds: cap=%d records=%d", i, dump.Capacity, len(dump.Records))
		}
	}
	close(stop)
	runners.Wait()
}

// TestAnalyzeJSONQuantiles pins the -statsjson satellite: the JSON
// report carries histogram quantiles (P50/P95/P99) and occupied
// buckets, and both survive a round trip.
func TestAnalyzeJSONQuantiles(t *testing.T) {
	db := datagen.Supplier(datagen.DefaultSupplierConfig)
	rep, err := ExplainAnalyze(context.Background(), datagen.SupplierQuery(), db, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, ok := rep.Metrics.Histograms["optimizer.phase.explore_ns"]
	if !ok {
		t.Fatal("report missing optimizer.phase.explore_ns histogram")
	}
	if h.P50 <= 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d", h.P50, h.P95, h.P99)
	}
	if len(h.Buckets) == 0 {
		t.Fatal("histogram snapshot has no buckets")
	}

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back AnalyzeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	h2 := back.Metrics.Histograms["optimizer.phase.explore_ns"]
	if h2.P50 != h.P50 || h2.P95 != h.P95 || h2.P99 != h.P99 {
		t.Errorf("quantiles changed across round trip: %+v vs %+v", h, h2)
	}
	if len(h2.Buckets) != len(h.Buckets) {
		t.Errorf("buckets lost: %d vs %d", len(h.Buckets), len(h2.Buckets))
	}
	// And the raw JSON literally carries the fields -statsjson consumers
	// read.
	for _, want := range []string{`"p95"`, `"buckets"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("statsjson output missing %s", want)
		}
	}
}
