package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/executor"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/value"
)

// answer is an order-insensitive digest of a query result: column
// names, row count and the wrapping sum of per-row hashes. Two results
// with the same answer are the same multiset of rows up to a 64-bit
// hash collision.
type answer struct {
	cols string
	rows int
	sum  uint64
}

func (a answer) String() string { return fmt.Sprintf("[%s] %d rows #%016x", a.cols, a.rows, a.sum) }

// addRow folds one row, given as its cells in JSON encoding, into the
// digest. The finalizer keeps the sum from cancelling structured
// differences between rows.
func (a *answer) addRow(cells [][]byte) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range cells {
		for _, b := range c {
			h = (h ^ uint64(b)) * prime
		}
		h = (h ^ 0x1f) * prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	a.rows++
	a.sum += h
}

// reply is the part of the service's JSON response the benchmark
// reads. Cells stay raw: their bytes are already canonical.
type reply struct {
	Columns []string            `json:"columns"`
	Rows    [][]json.RawMessage `json:"rows"`
	replyMeta
}

// replyMeta is the serving metadata kept of a response once its rows
// have been digested.
type replyMeta struct {
	Cache     string  `json:"cache"`
	QueuedNs  int64   `json:"queued_ns"`
	OptNs     int64   `json:"optimize_ns"`
	MaxQError float64 `json:"max_qerror"`
	Replanned bool    `json:"replanned"`
}

func digestReply(r *reply) answer {
	a := answer{cols: strings.Join(r.Columns, ",")}
	cells := make([][]byte, 0, len(r.Columns))
	for _, row := range r.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, c)
		}
		a.addRow(cells)
	}
	return a
}

// cellJSON encodes a value the way the service's response does, so a
// digest of a relation and a digest of a response body agree exactly
// when the rows do.
func cellJSON(buf []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		return strconv.AppendInt(buf, v.Int(), 10)
	case value.KindFloat:
		b, _ := json.Marshal(v.Float()) // a float64 result is never NaN or Inf here; Marshal cannot fail otherwise
		return append(buf, b...)
	case value.KindString:
		b, _ := json.Marshal(v.Str()) // strings always marshal
		return append(buf, b...)
	case value.KindBool:
		return strconv.AppendBool(buf, v.Bool())
	default:
		return append(buf, "null"...)
	}
}

func digestRelation(rel *relation.Relation) answer {
	attrs := rel.Schema().Attrs()
	names := make([]string, len(attrs))
	for i, at := range attrs {
		names[i] = at.String()
	}
	a := answer{cols: strings.Join(names, ",")}
	cells := make([][]byte, len(attrs))
	for _, t := range rel.Tuples() {
		for i, v := range t {
			cells[i] = cellJSON(cells[i][:0], v)
		}
		a.addRow(cells)
	}
	return a
}

// digestResponse digests an in-process response by way of its JSON
// encoding, the same bytes a client would see.
func digestResponse(resp *reorder.Response) (answer, error) {
	body, err := json.Marshal(resp)
	if err != nil {
		return answer{}, err
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return answer{}, err
	}
	return digestReply(&r), nil
}

// oracle computes, once per distinct SQL text, the answer of the plan
// as written: the literal SQL lowered without parameterization and run
// by the plain executor, never optimized, cached or bound. Every timed
// response is compared against it.
type oracle struct {
	db reorder.Database
	mu sync.Mutex
	m  map[string]*expectation
}

type expectation struct {
	once sync.Once
	ans  answer
	err  error
	ns   int64 // execution time of the as-written plan
}

func newOracle(db reorder.Database) *oracle {
	return &oracle{db: db, m: make(map[string]*expectation)}
}

func (o *oracle) expect(query string) (*expectation, error) {
	o.mu.Lock()
	e := o.m[query]
	if e == nil {
		e = &expectation{}
		o.m[query] = e
	}
	o.mu.Unlock()
	e.once.Do(func() {
		node, err := sql.ParseAndLower(query, o.db)
		if err != nil {
			e.err = fmt.Errorf("oracle: lower %q: %w", query, err)
			return
		}
		start := time.Now()
		rel, err := executor.Run(node, o.db)
		e.ns = time.Since(start).Nanoseconds()
		if err != nil {
			e.err = fmt.Errorf("oracle: run %q: %w", query, err)
			return
		}
		e.ans = digestRelation(rel)
	})
	return e, e.err
}

// prepare computes the expectations of queries on two goroutines, so
// checking a repetition's responses afterwards is hashing only.
func (o *oracle) prepare(queries []string) {
	var wg sync.WaitGroup
	next := make(chan string)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				_, _ = o.expect(q) // the error is kept in the expectation and reported by check
			}
		}()
	}
	for _, q := range queries {
		next <- q
	}
	close(next)
	wg.Wait()
}

// check compares one response against the as-written answer.
func (o *oracle) check(query string, got answer) error {
	e, err := o.expect(query)
	if err != nil {
		return err
	}
	if got != e.ans {
		return fmt.Errorf("wrong answer for %q: got %v, want %v", query, got, e.ans)
	}
	return nil
}

// corrupt overwrites the expected answer of query; tests use it to
// prove that a wrong answer fails the run.
func (o *oracle) corrupt(query string) {
	e, _ := o.expect(query)
	e.ans.sum++
}

// referenceCheck verifies, on the reduced copy of the workload's
// database, that the service's answer for every checked template equals the
// reference evaluator's (plan.Node.Eval, nested loops, no physical
// operators) on the plan as written. It returns the rows compared.
func referenceCheck(w *workload, tpls []template) (int, error) {
	db := w.db(true)
	svc, err := reorder.NewService(serviceConfig(w, db))
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(dataSeed))
	rows := 0
	for _, i := range checkedSample(len(tpls)) {
		t := tpls[i]
		query := t.sql(rng)
		node, err := sql.ParseAndLower(query, db)
		if err != nil {
			return rows, fmt.Errorf("reference: lower %q: %w", query, err)
		}
		rel, err := node.Eval(db)
		if err != nil {
			return rows, fmt.Errorf("reference: eval %q: %w", query, err)
		}
		resp, err := svc.Query(context.Background(), reorder.Request{SQL: query, Cache: w.cache})
		if err != nil {
			return rows, fmt.Errorf("reference: serve %q: %w", query, err)
		}
		got, err := digestResponse(resp)
		if err != nil {
			return rows, err
		}
		if want := digestRelation(rel); got != want {
			return rows, fmt.Errorf("reference: template %s %q: service %v, plan.Eval %v", t.name, query, got, want)
		}
		rows += rel.Len()
	}
	return rows, nil
}
