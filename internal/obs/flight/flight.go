// Package flight is the engine's query flight recorder: a bounded,
// race-safe ring of recent query records. Every observed run deposits
// one Record — query and plan fingerprints, phase timings, memo/guard
// counters, degradation and budget-trip flags, and, for an EXPLAIN
// ANALYZE run, the per-operator estimated-vs-actual rows with their
// q-errors. The ring holds the last N queries in O(N) memory forever:
// a long-lived service keeps a recent-history window for
// /debug/queries without unbounded growth. Nothing reads a record
// back into the engine: cardinality feedback records actuals under
// memo-group keys taken from optimizer.Result.Estimates.
package flight

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultCapacity is the ring size New uses for capacity <= 0.
const DefaultCapacity = 128

// Phase is one optimizer/executor phase's wall time.
type Phase struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// OpStat is one operator's estimate-accuracy row. Key is the subtree
// fingerprint (plan.Key of the operator's subtree), so a reader can
// match the row to its operator in the record's plan and compare the
// same subtree across records. Cardinality feedback keys differently:
// by the memo group the operator was extracted from
// (optimizer.Result.Estimates), which covers every equivalent
// expression of the subtree.
type OpStat struct {
	Op      string  `json:"op"`
	Key     string  `json:"key"`
	EstRows float64 `json:"estRows"`
	Rows    int     `json:"rows"`
	// QError is max(est/actual, actual/est) with both sides clamped to
	// at least one row; 1.0 means a perfect estimate.
	QError float64 `json:"qError,omitempty"`
	Ns     int64   `json:"ns"`
}

// QError computes the q-error of an estimate against an actual
// cardinality: max(est/actual, actual/est), both clamped to >= 1 row
// so empty results and missing estimates stay finite. The result is
// always >= 1; 1.0 is a perfect estimate.
func QError(est float64, actual int) float64 {
	e := est
	if e < 1 {
		e = 1
	}
	a := float64(actual)
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// Record is one query's flight entry.
type Record struct {
	// Seq is the recorder-assigned monotone sequence number; Add
	// stamps it.
	Seq   int64     `json:"seq"`
	Start time.Time `json:"start"`
	// Query and Hash identify the query; what they hold depends on the
	// writer. The query service stores the request's SQL text and
	// plan.Fingerprint of the lowered template (0 when the front end
	// failed); ExplainAnalyze stores plan.Key and plan.Fingerprint of
	// the query as written.
	Query string `json:"query"`
	Hash  uint64 `json:"hash,omitempty"`
	// PlanKey is the chosen plan's fingerprint.
	PlanKey string `json:"planKey,omitempty"`
	DurNs   int64  `json:"durNs"`
	RowsOut int    `json:"rowsOut"`
	// Degraded carries the optimizer's degradation reason, if any.
	Degraded string `json:"degraded,omitempty"`
	// BudgetTrips names the budget kinds that tripped during the run.
	BudgetTrips []string `json:"budgetTrips,omitempty"`
	// Error is the terminal error of a failed execution; successful
	// runs leave it empty.
	Error  string  `json:"error,omitempty"`
	Phases []Phase `json:"phases,omitempty"`
	// Counters is the run's memo/guard counter subset.
	Counters map[string]int64 `json:"counters,omitempty"`
	Ops      []OpStat         `json:"ops,omitempty"`
}

// Recorder is the bounded ring. All methods are safe for concurrent
// use and nil-safe (a nil recorder swallows records and dumps empty),
// matching the rest of the obs layer's "no is-it-on branches"
// contract.
type Recorder struct {
	mu   sync.Mutex
	ring []Record
	next int // ring slot the next Add writes
	n    int // occupied slots, <= len(ring)
	seq  int64
}

// New returns a recorder holding the last capacity records
// (DefaultCapacity for capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: make([]Record, capacity)}
}

// Add deposits one record, stamping Seq, and returns the stamped
// record. The oldest record is overwritten once the ring is full —
// the bound never grows.
func (r *Recorder) Add(rec Record) Record {
	if r == nil {
		return rec
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
	return rec
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Total returns the number of records ever added (Seq of the newest).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Snapshot copies the held records, newest first.
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.n)
	for i := 0; i < r.n; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (r.next - 1 - i + len(r.ring)*2) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// dump is the /debug/queries JSON schema.
type dump struct {
	Capacity int      `json:"capacity"`
	Len      int      `json:"len"`
	Total    int64    `json:"total"`
	Dropped  int64    `json:"dropped"`
	Records  []Record `json:"records"`
}

// WriteJSON dumps the recorder — capacity, totals and the held
// records newest first — as one JSON document; it is the
// /debug/queries endpoint body. A nil recorder writes an empty dump.
func (r *Recorder) WriteJSON(w io.Writer) error {
	d := dump{Records: []Record{}}
	if r != nil {
		records := r.Snapshot()
		r.mu.Lock()
		d.Capacity = len(r.ring)
		d.Len = r.n
		d.Total = r.seq
		d.Dropped = r.seq - int64(r.n)
		r.mu.Unlock()
		d.Records = records
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
