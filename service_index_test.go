package reorder

import (
	"context"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
)

// A base table's join index belongs to its shared image: built by the
// first join that builds on it with a given key set, once however many
// requests race for it, shared by every alias of the table, and gone
// with the image when the table is appended to.

// indexDB is serveDB plus u(a, b), thirty rows over five keys.
func indexDB() Database {
	db := serveDB()
	ub := relation.NewBuilder("u", "a", "b")
	for i := 0; i < 30; i++ {
		ub.Row(value.NewInt(int64(i%5)), value.NewInt(int64(i)))
	}
	db["u"] = ub.Relation()
	return db
}

// concurrently runs sql n times at once and returns the row counts.
func concurrently(t *testing.T, svc *Service, n int, sql string) []int {
	t.Helper()
	rows := make([]int, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := svc.Query(context.Background(), Request{SQL: sql})
			if err != nil {
				t.Error(err)
				return
			}
			rows[g] = len(resp.Rows)
		}(g)
	}
	wg.Wait()
	return rows
}

func TestJoinIndexBuiltOnce(t *testing.T) {
	builds := obs.Default().Counter("exec.index.builds")
	before := builds.Value()
	svc := newTestService(t, ServiceConfig{DB: indexDB(), MaxConcurrent: 8, MaxQueue: 64})
	if got := builds.Value() - before; got != 0 {
		t.Fatalf("NewService built %d join indexes; they are built by the first join", got)
	}

	// Both inputs are bare scans, so whichever side the plan builds on
	// is an image: one (relation, key set) pair, one build.
	const join = "select t.b, s.c from t, s where t.a = s.a"
	for _, n := range concurrently(t, svc, 16, join) {
		if n != 180 { // 5 keys × 6 × 6 rows
			t.Fatalf("join returned %d rows, want 180", n)
		}
	}
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("16 concurrent requests built %d join indexes, want 1", got)
	}
	concurrently(t, svc, 4, join)
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("later requests re-built the index (%d builds)", got)
	}

	// An aliased self-join builds on u under one alias and probes it
	// under the other: still one index, and a second pair of aliases
	// finds it through the shared image.
	for _, n := range concurrently(t, svc, 8, "select x.b as xb, y.b as yb from u as x, u as y where x.a = y.a") {
		if n != 180 {
			t.Fatalf("self-join returned %d rows, want 180", n)
		}
	}
	if got := builds.Value() - before; got != 2 {
		t.Fatalf("self-join of u brought the total to %d index builds, want 2", got)
	}
	concurrently(t, svc, 8, "select p.b as pb, q.b as qb from u as p, u as q where p.a = q.a")
	if got := builds.Value() - before; got != 2 {
		t.Fatalf("other aliases of u re-built its index (%d builds)", got)
	}
}

func TestJoinIndexDroppedOnAppend(t *testing.T) {
	db := indexDB()
	svc := newTestService(t, ServiceConfig{DB: db, MaxConcurrent: 8, MaxQueue: 64})
	// The selection on t keeps it the probe side; u is a bare scan, so
	// the join builds on u's index.
	const join = "select t.b as tb, u.b as ub from t, u where t.a = u.a and t.b >= 0"
	count := func() int {
		t.Helper()
		return concurrently(t, svc, 1, join)[0]
	}
	if got := count(); got != 180 {
		t.Fatalf("before Append: %d rows, want 180", got)
	}
	builds := obs.Default().Counter("exec.index.builds")
	before := builds.Value()
	db["u"].Append(relation.Tuple{value.NewInt(0), value.NewInt(99), value.NewInt(30)})
	if got := count(); got != 186 { // key 0 matches six rows of t
		t.Fatalf("after Append: %d rows, want 186 — a stale index answered", got)
	}
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("Append led to %d index builds, want 1", got)
	}

	// One Append racing readers: each answer is the one before it or
	// the one after it, never a mix, and the first query after it sees
	// it. (The image slot is what orders the writer against readers;
	// two racing writers would need a lock this engine does not have.)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db["u"].Append(relation.Tuple{value.NewInt(1), value.NewInt(98), value.NewInt(31)})
	}()
	for _, n := range concurrently(t, svc, 12, join) {
		if n != 186 && n != 192 {
			t.Errorf("racing Append: %d rows, want 186 (before) or 192 (after)", n)
		}
	}
	wg.Wait()
	if got := count(); got != 192 {
		t.Fatalf("after the racing Append: %d rows, want 192", got)
	}
}
