package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est    float64
		actual int
		want   float64
	}{
		{100, 100, 1},
		{100, 50, 2},
		{50, 100, 2},
		{0, 100, 100}, // missing estimate clamps to 1
		{100, 0, 100}, // empty result clamps to 1
		{0, 0, 1},     // both clamp: perfect
		{0.25, 1, 1},  // sub-row estimates clamp too
	}
	for _, c := range cases {
		if got := QError(c.est, c.actual); got != c.want {
			t.Errorf("QError(%v, %d) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
	if q := QError(3, 7); q < 2.33 || q > 2.34 {
		t.Errorf("QError(3,7) = %v", q)
	}
}

func TestRecorderBounded(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Add(Record{Query: fmt.Sprintf("q%d", i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d", r.Len(), r.Cap())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Newest first, and only the last four survive.
	for i, want := range []string{"q9", "q8", "q7", "q6"} {
		if snap[i].Query != want {
			t.Fatalf("snap[%d] = %q, want %q", i, snap[i].Query, want)
		}
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq >= snap[i-1].Seq {
			t.Fatalf("snapshot not newest-first: %d then %d", snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	if got := New(0).Cap(); got != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Add(Record{Query: "q"})
	if r.Len() != 0 || r.Cap() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder not inert")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d map[string]any
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if recs, ok := d["records"].([]any); !ok || len(recs) != 0 {
		t.Fatalf("nil dump records = %v", d["records"])
	}
}

func TestRecorderWriteJSONSchema(t *testing.T) {
	r := New(2)
	r.Add(Record{
		Query:   "q1",
		PlanKey: "p1",
		DurNs:   int64(5 * time.Millisecond),
		RowsOut: 3,
		Phases:  []Phase{{Name: "explore", Ns: 100}},
		Ops: []OpStat{
			{Op: "scan", Key: "scan(r1)", EstRows: 50, Rows: 100, QError: 2, Ns: 42},
		},
		Counters:    map[string]int64{"memo.waves": 4},
		BudgetTrips: []string{"exprs"},
		Degraded:    "budget",
	})
	r.Add(Record{Query: "q2"})
	r.Add(Record{Query: "q3"}) // evicts q1

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Capacity int      `json:"capacity"`
		Len      int      `json:"len"`
		Total    int64    `json:"total"`
		Dropped  int64    `json:"dropped"`
		Records  []Record `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Capacity != 2 || d.Len != 2 || d.Total != 3 || d.Dropped != 1 {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Records) != 2 || d.Records[0].Query != "q3" || d.Records[1].Query != "q2" {
		t.Fatalf("records = %+v", d.Records)
	}
}

// TestRecorderConcurrent runs adders, snapshotters and dumpers
// together; meaningful under -race, and verifies the bound holds
// throughout.
func TestRecorderConcurrent(t *testing.T) {
	r := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Record{Query: fmt.Sprintf("w%d-%d", w, i), DurNs: int64(i)})
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := len(r.Snapshot()); n > 16 {
					t.Errorf("snapshot overflowed the ring: %d", n)
					return
				}
				var buf bytes.Buffer
				if err := r.WriteJSON(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 || r.Len() != 16 {
		t.Fatalf("total/len = %d/%d", r.Total(), r.Len())
	}
}
