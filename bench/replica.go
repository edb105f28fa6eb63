package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/executor"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/relation"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/stats/feedback"
	"repro/internal/value"
)

// replica is the benchmark's own copy of the service's request
// pipeline: the same public functions reorder.Service.serve calls, in
// the same order, each inside a span. The service has no span hooks of
// its own yet, so this is where per-layer times come from;
// trace.coverage compares the replica's total against the real
// Service.Query so a drift between the two shows.
type replica struct {
	cfg   reorder.ServiceConfig
	db    reorder.Database
	est   *stats.Estimator
	cache *plancache.Cache
	ob    *reorder.Observer
	fb    *feedback.Store
	adapt *executor.Adapt
	drift map[string]int
	tr    *tracer

	analyze time.Duration
	// opts collects what optimizer.Optimize returned, one per run.
	opts []optRun
}

// optRun is the part of an optimizer.Result the metrics need.
type optRun struct {
	phases     map[string]time.Duration
	considered int
	degraded   bool
}

// replicaPlan mirrors the service's cached value.
type replicaPlan struct {
	plan    plan.Node
	nparams int
	estRows map[string]float64
}

// newReplica mirrors reorder.NewService, defaults included.
func newReplica(cfg reorder.ServiceConfig) *replica {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	r := &replica{cfg: cfg, db: cfg.DB, ob: reorder.NewObserver(cfg.FlightCap), drift: make(map[string]int)}
	start := time.Now()
	catalog := stats.FromDatabase(cfg.DB)
	r.analyze = time.Since(start)
	r.est = stats.NewEstimator(catalog)
	r.cache = plancache.New(cfg.CacheBytes, r.ob.Registry)
	if cfg.Feedback {
		r.cfg.ReplanQError, r.cfg.ReplanAfter = 10, 3
		r.fb = feedback.New(feedback.Options{Obs: r.ob.Registry})
		r.adapt = &executor.Adapt{SwapFactor: 4, Spill: true}
	}
	return r
}

// served is what one replica request produced.
type served struct {
	body   []byte // the response as the HTTP layer would encode it
	rows   int
	hit    bool
	execID int // span of the executor call
	root   int // span of the whole request
	encID  int // span of the JSON encoding
}

// serve mirrors Service.query + Service.serve for one request.
func (r *replica) serve(req request, id int) (*served, error) {
	tr := r.tr
	root := tr.start("replica", id, -1)
	defer tr.end(root)
	sp := tr.start("service.admit", id, root)
	if err := guard.Safely("serve.admit", "", r.ob.Registry, func() error {
		return guard.Hit(guard.PointServeAdmit)
	}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DefaultTimeout)
	defer cancel()
	reg := obs.NewRegistry()
	b := guard.New(ctx, guard.Limits{}, reg)
	start := time.Now()
	tr.end(sp)

	sp = tr.start("sql.parse", id, root)
	stmt, err := sql.Parse(req.sql)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("sql.parameterize", id, root)
	tmpl, params := sql.Parameterize(stmt)
	tr.end(sp)
	sp = tr.start("sql.lower", id, root)
	node, err := sql.Lower(tmpl, r.db)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("plan.key", id, root)
	key := plan.Key(node)
	hash := plan.Fingerprint(node)
	tr.end(sp)

	out := &served{root: root}
	var cached *replicaPlan
	if req.cache == "bypass" {
		if cached, err = r.optimize(node, b, reg, id, root); err != nil {
			return nil, err
		}
	} else {
		sp = tr.start("plancache.do", id, root)
		entry, st, err := r.cache.Do(ctx, key, hash, func() (any, int64, error) {
			cp, err := r.optimize(node, b, reg, id, sp)
			if err != nil {
				return nil, 0, err
			}
			return cp, planBytes(key, plan.Key(cp.plan)), nil
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.hit = st == plancache.Hit
		cached = entry.Value.(*replicaPlan)
	}
	if cached.nparams != len(params) {
		return nil, fmt.Errorf("replica: template %q expects %d params, got %d", key, cached.nparams, len(params))
	}

	sp = tr.start("plan.bind", id, root)
	bound, err := plan.BindParams(cached.plan, params)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("plan.key", id, root)
	planKey := plan.Key(bound)
	tr.end(sp)

	out.execID = tr.start("executor.run", id, root)
	var rel *relation.Relation
	var ann plan.Annotations
	if r.fb != nil {
		rel, ann, err = executor.RunInstrumentedAdaptive(bound, r.db, reg, b, r.adapt)
	} else {
		rel, err = executor.RunGuarded(bound, r.db, b)
	}
	tr.end(out.execID)
	if err != nil {
		return nil, err
	}
	out.rows = rel.Len()

	resp := &reorder.Response{CacheStatus: "replica", PlanKey: planKey, Params: len(params)}
	if r.fb != nil {
		sp = tr.start("feedback.observe", id, root)
		err := r.observe(ctx, key, hash, node, cached, bound, ann, req.cache != "bypass", b, reg, id, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	sp = tr.start("service.rows", id, root)
	attrs := rel.Schema().Attrs()
	resp.Columns = make([]string, len(attrs))
	for i, a := range attrs {
		resp.Columns[i] = a.String()
	}
	resp.Rows = make([][]any, rel.Len())
	for i, t := range rel.Tuples() {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = jsonValue(v)
		}
		resp.Rows[i] = row
	}
	tr.end(sp)

	// Mirrors Service.record: the flight record and the registry merge.
	sp = tr.start("service.record", id, root)
	rec := flight.Record{Start: start, Query: req.sql, DurNs: time.Since(start).Nanoseconds(), PlanKey: planKey,
		BudgetTrips: b.Trips(), RowsOut: len(resp.Rows)}
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "memo.") || strings.HasPrefix(name, "guard.") ||
			strings.HasPrefix(name, "optimizer.") || strings.HasPrefix(name, "feedback.") {
			if rec.Counters == nil {
				rec.Counters = make(map[string]int64)
			}
			rec.Counters[name] = v
		}
	}
	r.ob.Registry.Merge(reg)
	r.ob.Flight.Add(rec)
	tr.end(sp)

	// The HTTP handler's share; Service.Query does not include it.
	out.encID = tr.start("service_http.encode", id, root)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	tr.end(out.encID)
	out.body = buf.Bytes()
	return out, err
}

// optimize mirrors Service.optimizeTemplate.
func (r *replica) optimize(node plan.Node, b *guard.Budget, reg *obs.Registry, id, parent int) (*replicaPlan, error) {
	sp := r.tr.start("optimizer.optimize", id, parent)
	o := optimizer.New(r.est)
	o.Opts.Workers = r.cfg.Workers
	o.Opts.Budget = b
	o.Opts.Obs = reg
	o.Opts.Feedback = r.fb
	res, err := o.Optimize(node, r.db)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	run := optRun{phases: make(map[string]time.Duration), considered: res.Considered, degraded: res.Degraded != ""}
	for _, p := range res.Phases {
		run.phases[p.Name] += p.Elapsed
	}
	r.opts = append(r.opts, run)
	cp := &replicaPlan{plan: res.Best.Plan, nparams: plan.ParamCount(node)}
	if r.fb == nil {
		return cp, nil
	}
	sp = r.tr.start("stats.snapshot", id, parent)
	defer r.tr.end(sp)
	sess := r.est.NewSession(reg)
	sess.SetBudget(b)
	sess.SetFeedback(r.fb)
	cp.estRows = make(map[string]float64)
	var walkErr error
	plan.Walk(cp.plan, func(n plan.Node) {
		if walkErr != nil || len(n.Children()) == 0 {
			return
		}
		est, err := sess.Rows(n)
		if err != nil {
			walkErr = err
			return
		}
		cp.estRows[plan.Key(n)] = est
	})
	return cp, walkErr
}

// observe mirrors Service.observeExecution: record per-subtree
// actuals, track the drift streak, re-plan through Cache.Refresh.
func (r *replica) observe(ctx context.Context, key string, hash uint64, node plan.Node, cached *replicaPlan, bound plan.Node, ann plan.Annotations, replan bool, b *guard.Budget, reg *obs.Registry, id, parent int) error {
	maxQ := 1.0
	rows := 0
	var recErr error
	var walk func(t, bnd plan.Node)
	walk = func(t, bnd plan.Node) {
		tc, bc := t.Children(), bnd.Children()
		if len(tc) != len(bc) {
			return
		}
		for i := range tc {
			walk(tc[i], bc[i])
		}
		a, ok := ann[bnd]
		if len(tc) == 0 || !ok {
			return
		}
		k := plan.Key(t)
		est, ok := cached.estRows[k]
		if !ok {
			return
		}
		if q := flight.QError(est, a.Rows); q > maxQ {
			maxQ = q
		}
		rows++
		if err := r.fb.Record(k, est, float64(a.Rows)); err != nil && recErr == nil {
			recErr = err
		}
	}
	walk(cached.plan, bound)
	if recErr != nil {
		return recErr
	}
	reg.Counter("feedback.corrections").Add(int64(rows))
	if maxQ < r.cfg.ReplanQError {
		r.drift[key] = 0
		return nil
	}
	if !replan {
		return nil
	}
	r.drift[key]++
	if r.drift[key] < r.cfg.ReplanAfter {
		return nil
	}
	r.drift[key] = 0
	_, err := r.cache.Refresh(ctx, key, hash, func() (any, int64, error) {
		cp, err := r.optimize(node, b, reg, id, parent)
		if err != nil {
			return nil, 0, err
		}
		return cp, planBytes(key, plan.Key(cp.plan)), nil
	})
	if err == nil {
		reg.Counter("feedback.replans").Inc()
	}
	return nil // like the service, a failed re-plan never fails the request
}

// planBytes is the service's cache-footprint estimate.
func planBytes(key, planKey string) int64 { return int64(len(key)+len(planKey))*8 + 1024 }

// jsonValue is the service's value-to-JSON conversion.
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
