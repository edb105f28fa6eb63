// Service is the long-running query-serving layer: admission control
// in front, the fingerprint-keyed plan cache in the middle, the
// budgeted executor at the back. The design premise follows the paper:
// optimization is the expensive step worth doing well once, so the
// service parameterizes every incoming query (literals become $n
// slots), optimizes the parameterized template exactly once per
// distinct shape — with the values of the request that missed visible
// to the estimator — and serves every later request with the same
// shape by binding its constants into the cached winner.
package reorder

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/executor"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
	"repro/internal/value"
)

// ErrOverloaded is the typed load-shed error: the admission queue is
// full and the request was rejected without consuming any optimizer or
// executor resources. Clients should back off; the HTTP layer maps it
// to 429.
var ErrOverloaded = errors.New("reorder: server overloaded, request shed")

// ServiceConfig configures NewService. The zero value of each field
// selects a sensible default.
type ServiceConfig struct {
	// DB is the database served. Required.
	DB Database
	// CacheBytes bounds the plan cache's estimated footprint
	// (default 64 MiB).
	CacheBytes int64
	// MaxConcurrent caps requests inside the optimize/execute section
	// (default 8).
	MaxConcurrent int
	// MaxQueue caps requests waiting for a concurrency slot; arrivals
	// beyond MaxConcurrent+MaxQueue are shed with ErrOverloaded
	// (default 4×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout bounds a request that carries no deadline of its
	// own (default 5s; ≤0 keeps the default).
	DefaultTimeout time.Duration
	// DefaultLimits is the per-request budget for tenants without an
	// entry in Tenants (zero = unlimited).
	DefaultLimits Limits
	// Tenants maps tenant names to their per-request budgets.
	Tenants map[string]Limits
	// Workers is ignored: memo exploration is serial. It stays only
	// because the benchmark module still names it.
	Workers int
	// FlightCap sizes the flight recorder ring (0 = default).
	FlightCap int
	// Feedback enables the cardinality-feedback loop: every execution
	// runs instrumented, per-operator actual row counts are folded into
	// a feedback store keyed by the memo group each operator was
	// extracted from (its template representative's fingerprint), and a
	// template whose max subtree q-error stays past ReplanQError for
	// ReplanAfter consecutive runs is re-optimized in place with the
	// corrected cardinalities. Off by default: the serving path is then
	// bit-identical to a service without the feature.
	Feedback bool
	// ReplanQError is the max-subtree q-error past which a run counts
	// as drifted (default 10).
	ReplanQError float64
	// ReplanAfter is the number of consecutive drifted runs that
	// triggers a re-plan (default 3).
	ReplanAfter int
}

// Service serves parameterized SQL over an in-memory database with a
// shared plan cache and admission control. Safe for concurrent use.
type Service struct {
	cfg   ServiceConfig
	db    Database
	est   *stats.Estimator
	cache *plancache.Cache
	ob    *Observer

	sem      chan struct{} // concurrency slots
	inflight atomic.Int64  // waiting + running, bounded by slots+queue

	queueDepth *obs.Gauge
	queueWait  *obs.Histogram // guard.queue_wait_milli
	shed       *obs.Counter
	requests   *obs.CounterVec

	// shapes memoizes the front end per literal-masked token shape.
	shapes shapeMemo

	// Feedback mode (nil fb = off, the static serving path). qerror
	// takes each observed operator's q-error straight into the
	// observer's registry, as requests does its outcomes: the run
	// registry would allocate and merge a histogram per request.
	fb     *feedback.Store
	qerror *obs.HistogramVec
}

// tplStats is one template's drift bookkeeping: the consecutive-drift
// streak, the last observed max subtree q-error (stored ×1000 to stay
// atomic), total corrections recorded, and the replan generation. It
// lives on the template's cachedPlan, is handed on to the plan a
// re-plan builds, and is evicted with the cache entry.
type tplStats struct {
	drift       atomic.Int64
	lastQMilli  atomic.Int64
	corrections atomic.Int64
	gen         atomic.Int64
}

// NewService builds a serving facade over cfg.DB. It reads no table:
// a table's statistics (exact, this engine's ANALYZE) are computed
// from its columnar image the first time a plan reads the table, once,
// and shared by every later optimization. They are a snapshot of the
// table at that first read; rows appended afterwards are not seen.
func NewService(cfg ServiceConfig) (*Service, error) {
	if len(cfg.DB) == 0 {
		return nil, fmt.Errorf("reorder: ServiceConfig.DB is required")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	ob := NewObserver(cfg.FlightCap)
	s := &Service{
		cfg:        cfg,
		db:         cfg.DB,
		est:        stats.ForDatabase(cfg.DB),
		cache:      plancache.New(cfg.CacheBytes, ob.Registry),
		ob:         ob,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		queueDepth: ob.Registry.Gauge("serve.queue_depth"),
		queueWait:  ob.Registry.Histogram("guard.queue_wait_milli"),
		shed:       ob.Registry.Counter("serve.shed"),
		requests:   ob.Registry.CounterVec("serve.requests", "outcome"),
	}
	if cfg.Feedback {
		if s.cfg.ReplanQError <= 0 {
			s.cfg.ReplanQError = 10
		}
		if s.cfg.ReplanAfter <= 0 {
			s.cfg.ReplanAfter = 3
		}
		s.fb = feedback.New(feedback.Options{Obs: ob.Registry})
		s.qerror = ob.Registry.HistogramVec("executor.qerror_milli", "op")
	}
	return s, nil
}

// Observer exposes the service's metrics registry and flight recorder
// (the same instance backing its /metrics and /debug/queries routes).
func (s *Service) Observer() *Observer { return s.ob }

// CacheStats snapshots the plan cache.
func (s *Service) CacheStats() plancache.Stats { return s.cache.Stats() }

// CacheDebug is the /debug/cache payload: aggregate cache counters,
// the front end's shape memo (memoized shapes, requests served through
// it, and requests that took the full front end; bypass requests touch
// neither), plus one row per cached template with its feedback state —
// last observed max q-error, corrections recorded, replan generation.
type CacheDebug struct {
	plancache.Stats
	ShapeEntries int              `json:"shape_entries"`
	ShapeHits    int64            `json:"shape_hits"`
	ShapeMisses  int64            `json:"shape_misses"`
	Plans        []CachePlanDebug `json:"plans"`
}

// CachePlanDebug describes one cached template.
type CachePlanDebug struct {
	Key         string  `json:"key"`
	PlanKey     string  `json:"plan_key"`
	Bytes       int64   `json:"bytes"`
	Degraded    string  `json:"degraded,omitempty"`
	LastQError  float64 `json:"last_qerror,omitempty"`
	Corrections int64   `json:"corrections,omitempty"`
	ReplanGen   int64   `json:"replan_gen,omitempty"`
	DriftRuns   int64   `json:"drift_runs,omitempty"`
}

// CacheDebug snapshots the cache and its per-template feedback state.
func (s *Service) CacheDebug() CacheDebug {
	d := CacheDebug{
		Stats:        s.cache.Stats(),
		ShapeEntries: s.shapes.len(),
		ShapeHits:    s.shapes.hits.Load(),
		ShapeMisses:  s.shapes.misses.Load(),
	}
	for _, e := range s.cache.Entries() {
		row := CachePlanDebug{Key: e.Key, Bytes: e.Bytes}
		if cp, ok := e.Value.(*cachedPlan); ok {
			row.PlanKey = plan.Key(cp.plan)
			row.Degraded = cp.degraded
			row.LastQError = float64(cp.stats.lastQMilli.Load()) / 1000
			row.Corrections = cp.stats.corrections.Load()
			row.ReplanGen = cp.stats.gen.Load()
			row.DriftRuns = cp.stats.drift.Load()
		}
		d.Plans = append(d.Plans, row)
	}
	return d
}

// Request is one query submission.
type Request struct {
	// SQL is the query text with inline literals.
	SQL string `json:"sql"`
	// Tenant selects the per-tenant budget ("" = DefaultLimits).
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMillis bounds the request end to end; 0 uses the
	// service default, and values above the default are clamped to it
	// (the client cannot opt out of the server's ceiling).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Cache selects cache behavior: "" serves through the plan cache,
	// "bypass" runs the whole SQL front end and optimizes from scratch
	// without touching the plan cache or the shape memo (the
	// benchmark's cold_plan workload uses it to measure the miss path).
	Cache string `json:"cache,omitempty"`
}

// Response is one query result with serving metadata.
type Response struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	// CacheStatus is "hit", "miss", "shared" (waited on another
	// request's optimization of the same template) or "bypass".
	CacheStatus string `json:"cache"`
	// PlanKey is the executed plan's canonical fingerprint.
	PlanKey string `json:"plan_key"`
	// Params is the number of literals normalized into slots.
	Params int `json:"params"`
	// Degraded carries the optimizer's degradation reason when the
	// cached plan came from an optimization stopped at a cap.
	Degraded string `json:"degraded,omitempty"`
	// Phase timings in nanoseconds.
	QueuedNs   int64 `json:"queued_ns"`
	OptimizeNs int64 `json:"optimize_ns"`
	BindNs     int64 `json:"bind_ns"`
	ExecNs     int64 `json:"exec_ns"`
	// Feedback metadata (feedback mode only). MaxQError is this
	// execution's worst subtree q-error; FeedbackCorrections is how
	// many estimates the served plan's optimization took from the
	// feedback store; ReplanGen counts how many times this template
	// has been re-planned; Replanned marks the request whose drift
	// observation triggered a re-plan.
	MaxQError           float64 `json:"max_qerror,omitempty"`
	FeedbackCorrections int     `json:"feedback_corrections,omitempty"`
	ReplanGen           int64   `json:"replan_gen,omitempty"`
	Replanned           bool    `json:"replanned,omitempty"`

	// rel is the result as the executor returned it, columnar. Query
	// boxes it into Rows; the HTTP handler encodes it onto the wire
	// directly (wire.go) and never fills Rows.
	rel *batch.Rel
}

// ServeError is a classified request failure. Code is stable and
// machine-readable; HTTPStatus is the status the HTTP layer maps it
// to.
type ServeError struct {
	Code       string
	HTTPStatus int
	Err        error
}

// Error implements error.
func (e *ServeError) Error() string { return e.Code + ": " + e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ServeError) Unwrap() error { return e.Err }

// classify wraps err with its serving taxonomy. parseStage marks
// failures before any plan existed (client's query text is at fault).
func classify(err error, parseStage bool) *ServeError {
	switch {
	case errors.Is(err, ErrOverloaded):
		return &ServeError{Code: "overloaded", HTTPStatus: 429, Err: err}
	case guard.IsCancelled(err):
		return &ServeError{Code: "deadline", HTTPStatus: 504, Err: err}
	case guard.IsBudget(err):
		return &ServeError{Code: "budget", HTTPStatus: 422, Err: err}
	case guard.IsInjected(err):
		return &ServeError{Code: "injected", HTTPStatus: 500, Err: err}
	case guard.IsPanic(err):
		return &ServeError{Code: "panic", HTTPStatus: 500, Err: err}
	case parseStage:
		return &ServeError{Code: "bad_query", HTTPStatus: 400, Err: err}
	default:
		return &ServeError{Code: "internal", HTTPStatus: 500, Err: err}
	}
}

// cachedPlan is the plan cache's value: the optimized parameterized
// template plus binding metadata. Immutable after insertion, except
// for the atomic counters stats points to.
type cachedPlan struct {
	plan plan.Node
	// keySkel renders plan.Key of a binding of plan by splicing (nil
	// when the key cannot be split; Key of the bound tree then).
	keySkel  *plan.KeySkeleton
	nparams  int
	degraded string
	// fbCorrections is how many estimates this plan's optimization
	// took from the feedback store (0 for a cold or feedback-off
	// optimization).
	fbCorrections int
	// est is, per node of plan, the cardinality of the memo group the
	// optimizer extracted it from and the key the group's feedback is
	// recorded under (optimizer.Result.Estimates; feedback mode only).
	// Drift is actuals measured against THESE — not against a freshly
	// corrected optimization, which would absorb the previous run's
	// corrections and mask a stale cached plan.
	est map[plan.Node]stats.Estimate
	// stats is the template's drift bookkeeping, read and written in
	// feedback mode. A bypass request's plan has its own, which dies
	// with it.
	stats *tplStats
}

// planBytes estimates a cached plan's footprint for the cache's byte
// budget: the canonical key is a fair proxy for tree size (every node
// and predicate renders into it), multiplied by an assumed per-byte
// overhead for the node structures themselves.
func planBytes(key string, planKey string) int64 {
	return int64(len(key)+len(planKey))*8 + 1024
}

// Query serves one request end to end: admission, parameterization,
// plan-cache lookup (optimizing on miss), parameter binding, budgeted
// execution. Errors are always *ServeError.
func (s *Service) Query(ctx context.Context, req Request) (*Response, error) {
	resp, err := s.query(ctx, req)
	if se := s.settle(err); se != nil {
		return nil, se
	}
	resp.Rows = boxRows(resp.rel)
	resp.rel = nil
	// The column names are shared with the plan (plan.Columns); the
	// caller gets a copy it may write to.
	resp.Columns = slices.Clone(resp.Columns)
	return resp, nil
}

// settle classifies a request's failure and counts its outcome on
// serve.requests; it returns nil for a success.
func (s *Service) settle(err error) *ServeError {
	if err == nil {
		s.requests.With("ok").Inc()
		return nil
	}
	se := &ServeError{}
	if !errors.As(err, &se) {
		se = classify(err, false)
	}
	s.requests.With(se.Code).Inc()
	return se
}

// query is the request path Query and the HTTP handler share. It
// leaves the result columnar in Response.rel and the outcome for the
// caller to settle.
func (s *Service) query(ctx context.Context, req Request) (*Response, error) {
	// Fault point first: an injected admission fault must reject
	// before any queue accounting, so it can never leak a slot. Safely
	// contains an injected panic into a typed error, keeping the
	// client-facing contract (classified error, never a crash).
	if err := guard.Safely("serve.admit", "", s.ob.Registry, func() error {
		return guard.Hit(guard.PointServeAdmit)
	}); err != nil {
		return nil, classify(err, false)
	}

	// Deadline: the client's requested timeout, clamped to the server
	// ceiling.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		if d := time.Duration(req.TimeoutMillis) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Admission: bound waiting+running; beyond the bound, shed
	// immediately with the typed overload error — the queue can never
	// grow without limit.
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxConcurrent+s.cfg.MaxQueue) {
		s.inflight.Add(-1)
		s.shed.Inc()
		return nil, classify(ErrOverloaded, false)
	}
	defer s.inflight.Add(-1)
	s.queueDepth.Set(s.inflight.Load())

	queueStart := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, classify(fmt.Errorf("%w: %v", guard.ErrCancelled, ctx.Err()), false)
	}
	defer func() { <-s.sem }()
	queued := time.Since(queueStart)
	s.queueDepth.Set(s.inflight.Load())
	s.queueWait.Observe(queued.Milliseconds())

	// Per-run budget and registry (merged into the aggregate at the
	// end, preserving the observer's per-run isolation contract).
	limits := s.cfg.DefaultLimits
	if l, ok := s.cfg.Tenants[req.Tenant]; ok {
		limits = l
	}
	reg := obs.NewRegistry()
	b := guard.New(ctx, limits, reg)

	start := time.Now()
	resp, planKey, hash, runErr := s.serve(ctx, req, b, reg)
	rec := flight.Record{Start: start, Query: req.SQL, Hash: hash, PlanKey: planKey}
	if queued > 0 {
		rec.Phases = append(rec.Phases, flight.Phase{Name: "queued", Ns: queued.Nanoseconds()})
	}
	if resp != nil {
		rec.RowsOut = resp.rel.N
		rec.Degraded = resp.Degraded
		if resp.OptimizeNs > 0 {
			rec.Phases = append(rec.Phases, flight.Phase{Name: "optimize", Ns: resp.OptimizeNs})
		}
		rec.Phases = append(rec.Phases,
			flight.Phase{Name: "bind", Ns: resp.BindNs},
			flight.Phase{Name: "execute", Ns: resp.ExecNs})
	}
	s.ob.record(rec, reg, b, runErr)
	if runErr != nil {
		return nil, runErr
	}
	resp.QueuedNs = queued.Nanoseconds()
	return resp, nil
}

// serve runs the post-admission pipeline. It returns the template's
// hash (0 when the front end failed) for the flight record.
func (s *Service) serve(ctx context.Context, req Request, b *guard.Budget, reg *obs.Registry) (*Response, string, uint64, error) {
	// The lowered template and this request's literals.
	tpl, params, err := s.frontEnd(req)
	if err != nil {
		return nil, "", 0, err
	}
	key, hash, node := tpl.key, tpl.hash, tpl.node

	// Resolve the optimized template: cache, or direct optimization
	// when bypassed.
	var cached *cachedPlan
	status := "bypass"
	var optimizeNs int64
	if req.Cache == "bypass" {
		optStart := time.Now()
		cp, err := s.optimizeTemplate(node, params, b, reg)
		optimizeNs = time.Since(optStart).Nanoseconds()
		if err != nil {
			return nil, "", hash, classify(err, false)
		}
		cached = cp
	} else {
		optStart := time.Now()
		entry, st, err := s.cache.Do(ctx, key, hash, s.fillCache(key, node, params, nil, b, reg))
		if err != nil {
			return nil, "", hash, classify(err, false)
		}
		status = st.String()
		if st != plancache.Hit {
			optimizeNs = time.Since(optStart).Nanoseconds()
		}
		var ok bool
		cached, ok = entry.Value.(*cachedPlan)
		if !ok {
			return nil, "", hash, classify(fmt.Errorf("reorder: foreign cache entry for %q", key), false)
		}
	}
	if cached.nparams != len(params) {
		return nil, "", hash, classify(fmt.Errorf("reorder: template %q expects %d params, got %d", key, cached.nparams, len(params)), false)
	}

	// Bind this request's constants into the shared template.
	bindStart := time.Now()
	bound, err := plan.BindParams(cached.plan, params)
	if err != nil {
		return nil, "", hash, classify(err, false)
	}
	bindNs := time.Since(bindStart).Nanoseconds()
	var planKey string
	if cached.keySkel != nil {
		planKey = cached.keySkel.Splice(params)
	} else {
		planKey = plan.Key(bound)
	}

	// Execute under the request budget. Feedback mode runs
	// instrumented: per-operator actuals feed the store.
	execStart := time.Now()
	opts := executor.Options{Budget: b}
	if s.fb != nil {
		opts.Obs = reg
	}
	rel, ann, err := executor.Exec(bound, s.db, opts)
	execNs := time.Since(execStart).Nanoseconds()
	if err != nil {
		return nil, planKey, hash, classify(err, false)
	}

	resp := &Response{
		CacheStatus: status,
		PlanKey:     planKey,
		Params:      len(params),
		Degraded:    cached.degraded,
		OptimizeNs:  optimizeNs,
		BindNs:      bindNs,
		ExecNs:      execNs,
		rel:         rel,
	}
	if s.fb != nil {
		replan := req.Cache != "bypass" // bypass has no cache entry to rebuild
		if err := s.observeExecution(ctx, key, hash, node, params, cached, bound, ann, replan, b, reg, resp); err != nil {
			return nil, planKey, hash, classify(err, false)
		}
	}
	resp.Columns = plan.Columns(bound, rel.Schema)
	return resp, planKey, hash, nil
}

// boxRows converts a columnar result to the rows of the Go API's
// Response, cell by cell from the typed vectors. Rows are carved from
// one flat arena (rows×width cells), not allocated one by one.
func boxRows(rel *batch.Rel) [][]any {
	w := rel.Width()
	arena := make([]any, rel.N*w)
	for c := 0; c < w; c++ {
		col := rel.Col(c)
		for i := 0; i < rel.N; i++ {
			arena[i*w+c] = jsonValue(col.At(i))
		}
	}
	rows := make([][]any, rel.N)
	for i := range rows {
		rows[i] = arena[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// optimizeTemplate runs the full optimizer on the parameterized
// template under the request's budget, estimating each `col = $n`
// with the value params binds. In feedback mode the feedback store
// rides along, so re-optimizations rank plans with corrected
// cardinalities (a cold store changes nothing).
func (s *Service) optimizeTemplate(node plan.Node, params []value.Value, b *guard.Budget, reg *obs.Registry) (*cachedPlan, error) {
	o := optimizer.New(s.est.WithParams(params))
	o.Opts.Budget = b
	o.Opts.Obs = reg
	o.Opts.Feedback = s.fb
	res, err := o.Optimize(node, s.db)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{
		plan:          res.Best.Plan,
		nparams:       plan.ParamCount(node),
		degraded:      res.Degraded,
		fbCorrections: res.FeedbackCorrections,
		stats:         &tplStats{},
	}
	if s.fb != nil {
		cp.est = res.Estimates
	}
	return cp, nil
}

// observeExecution closes the feedback loop after one instrumented
// execution: each composite operator's actual cardinality is compared
// against the estimate of the memo group it was extracted from, its
// q-error observed into executor.qerror_milli{op}, folded into the
// store under that group's key — the plan.Key of the group's
// TEMPLATE representative, so the learning transfers across parameter
// bindings and to every member of the group — and a template that
// keeps drifting past the q-error threshold is re-planned in place
// with this request's values.
func (s *Service) observeExecution(ctx context.Context, key string, hash uint64, node plan.Node, params []value.Value, cached *cachedPlan, bound plan.Node, ann plan.Annotations, replan bool, b *guard.Budget, reg *obs.Registry, resp *Response) error {
	// Drift is measured against the estimates the cached plan was
	// optimized with (cached.est), not a fresh optimization's:
	// corrections recorded by earlier runs would otherwise
	// make the estimates look perfect while the cached plan — built
	// before those corrections — is still the stale one.
	type obsRow struct {
		key    string
		est    float64
		actual int
	}
	var rows []obsRow
	maxQ := 1.0
	var walk func(t, bnd plan.Node)
	walk = func(t, bnd plan.Node) {
		// BindParams preserves tree shape: the bound tree is the
		// template with Param leaves swapped for Consts, node for node.
		tc, bc := t.Children(), bnd.Children()
		if len(tc) != len(bc) {
			return
		}
		for i := range tc {
			walk(tc[i], bc[i])
		}
		if len(tc) == 0 {
			return // scans are exact; only composite subtrees are corrected
		}
		a, ok := ann[bnd]
		if !ok {
			return
		}
		est, ok := cached.est[t]
		if !ok || est.Key == "" {
			return
		}
		q := observeQError(s.qerror, executor.OpName(bnd), est.Rows, a.Rows)
		if q > maxQ {
			maxQ = q
		}
		rows = append(rows, obsRow{key: est.Key, est: est.Rows, actual: a.Rows})
	}
	walk(cached.plan, bound)
	for _, r := range rows {
		if err := s.fb.Record(r.key, r.est, float64(r.actual)); err != nil {
			return err
		}
	}
	reg.Counter("feedback.corrections").Add(int64(len(rows)))

	ts := cached.stats
	ts.corrections.Add(int64(len(rows)))
	ts.lastQMilli.Store(int64(maxQ * 1000))
	resp.MaxQError = maxQ
	resp.FeedbackCorrections = cached.fbCorrections
	resp.ReplanGen = ts.gen.Load()

	if maxQ < s.cfg.ReplanQError || !replan {
		if maxQ < s.cfg.ReplanQError {
			ts.drift.Store(0)
		}
		return nil
	}
	streak := ts.drift.Add(1)
	// CompareAndSwap elects exactly one of the racing requests that
	// crossed the threshold to run the re-plan; the others see the
	// reset streak and move on.
	if streak < int64(s.cfg.ReplanAfter) || !ts.drift.CompareAndSwap(streak, 0) {
		return nil
	}
	reg.Counter("feedback.drift_trips").Inc()
	if err := s.replanTemplate(ctx, key, hash, node, params, ts, b, reg); err != nil {
		// A failed re-plan never fails the request (its results are
		// already in hand) and never costs the cache its old entry —
		// Refresh keeps the previous plan serving on error.
		reg.Counter("feedback.replan_errors").Inc()
		return nil
	}
	reg.Counter("feedback.replans").Inc()
	resp.ReplanGen = ts.gen.Add(1)
	resp.Replanned = true
	return nil
}

// replanTemplate atomically rebuilds key's cache entry from a fresh
// feedback-corrected optimization with params' values; the new plan
// keeps the template's drift bookkeeping ts. Concurrent replans of the
// same template collapse into one build (singleflight), and the old
// entry serves until the new one lands.
func (s *Service) replanTemplate(ctx context.Context, key string, hash uint64, node plan.Node, params []value.Value, ts *tplStats, b *guard.Budget, reg *obs.Registry) error {
	_, err := s.cache.Refresh(ctx, key, hash, s.fillCache(key, node, params, ts, b, reg))
	return err
}

// fillCache builds key's plan-cache entry: the template optimized with
// params' values, plus the skeleton that splices each binding's plan
// key. A non-nil ts carries a re-planned template's drift bookkeeping
// over to its new plan.
func (s *Service) fillCache(key string, node plan.Node, params []value.Value, ts *tplStats, b *guard.Budget, reg *obs.Registry) func() (any, int64, error) {
	return func() (any, int64, error) {
		cp, err := s.optimizeTemplate(node, params, b, reg)
		if err != nil {
			return nil, 0, err
		}
		if ts != nil {
			cp.stats = ts
		}
		cp.keySkel = plan.NewKeySkeleton(cp.plan)
		return cp, planBytes(key, plan.Key(cp.plan)), nil
	}
}

// jsonValue converts a value to its natural JSON representation.
func jsonValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.Int()
	case value.KindFloat:
		return v.Float()
	case value.KindString:
		return v.Str()
	case value.KindBool:
		return v.Bool()
	default:
		return nil
	}
}
