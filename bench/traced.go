package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// baselineShare is the part of a traced pass spent on plain
// single-client round trips before tracing starts. They give the
// untraced latency trace.overhead_ratio compares against, and a
// section with nothing but the service running for the go.* counts.
const baselineShare = 0.25

// coverageLo and coverageHi bound trace.coverage: outside them the
// replica no longer does what Service.Query does, and the per-layer
// times cannot be trusted.
const coverageLo, coverageHi = 0.85, 1.15

// runTraced is the traced pass of one workload: one client, the same
// request stream as the end-to-end pass, each request sent
// three ways — through the replica pipeline with a span per layer,
// through an in-process Service.Query, and over HTTP — against three
// independent plan caches, so each sees every request exactly once.
// Its numbers are never mixed into the end-to-end metrics.
func runTraced(w *workload, o options) (*passResult, *tracer, error) {
	res := &passResult{Workload: w.name, Trace: true, Metrics: make(map[string]measured)}
	if !o.smoke {
		spinUp()
	}
	e, err := setup(w, o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer e.close()
	cfg := serviceConfig(w, e.db)
	twin, err := reorder.NewService(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := newReplica(cfg)
	orc := newOracle(e.db)
	if errs := verify(orc, e.warm); len(errs) > 0 {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, errs[0])
	}
	// The twin and the replica get the same warm-up the service got.
	for i, x := range e.warm {
		if _, err := twin.Query(context.Background(), reorder.Request{SQL: x.req.sql, Cache: x.req.cache}); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up twin: %w", w.name, err)
		}
		if _, err := rep.serve(x.req, -1-i); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up replica: %w", w.name, err)
		}
	}
	fbFirstQ, fbToReplan := feedbackWarmup(e.warm)

	c := newClient(e.url)
	defer c.close()
	s := newStream(w, e.tpls, o.seed, 0)
	total := time.Duration(o.seconds * float64(time.Second))

	// Section 1: untraced baseline.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var base []exchange
	for deadline := time.Now().Add(time.Duration(float64(total) * baselineShare)); time.Now().Before(deadline); {
		base = append(base, c.do(s.next()))
	}
	runtime.ReadMemStats(&after)
	res.Attempted += len(base)
	res.fail(verify(orc, base)...)

	// Section 2: traced.
	tr := newTracer()
	rep.tr = tr
	rep.opts = nil
	type sample struct {
		tpl              int
		sql              string
		root, query, rtt int // span ids
		exec, enc        int
		hit              bool
		rows, bytes      int
		queuedNs         int64
	}
	var samples []sample
	for id, deadline := 0, time.Now().Add(total-time.Duration(float64(total)*baselineShare)); time.Now().Before(deadline); id++ {
		req := s.next()
		sm := sample{tpl: req.tpl, sql: req.sql}

		out, err := rep.serve(req, id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: replica: %w", w.name, err)
		}
		sm.root, sm.exec, sm.enc, sm.hit, sm.rows = out.root, out.execID, out.encID, out.hit, out.rows

		// The twin and the HTTP service take turns going first, so
		// neither always finds the data warm in the CPU caches.
		var resp *reorder.Response
		var qerr error
		var x exchange
		query := func() {
			sm.query = tr.start("service.query", id, -1)
			resp, qerr = twin.Query(context.Background(), reorder.Request{SQL: req.sql, Cache: req.cache})
			tr.end(sm.query)
		}
		roundTrip := func() {
			sm.rtt = tr.start("service_http.roundtrip", id, -1)
			x = c.do(req)
			tr.end(sm.rtt)
		}
		if id%2 == 0 {
			query()
			roundTrip()
		} else {
			roundTrip()
			query()
		}
		sm.bytes = x.bytes

		// Checking runs between requests, outside every span.
		res.Attempted += 3
		var r reply
		if err := json.Unmarshal(out.body, &r); err != nil {
			res.fail(fmt.Errorf("replica %q: %w", req.sql, err))
		} else if err := orc.check(req.sql, digestReply(&r)); err != nil {
			res.fail(fmt.Errorf("replica: %w", err))
		}
		if qerr != nil {
			res.fail(fmt.Errorf("Service.Query %q: %w", req.sql, qerr))
		} else if got, err := digestResponse(resp); err != nil {
			res.fail(err)
		} else if err := orc.check(req.sql, got); err != nil {
			res.fail(fmt.Errorf("Service.Query: %w", err))
		}
		if err := verifyOne(orc, x); err != nil {
			res.fail(err)
		}
		sm.queuedNs = x.reply.QueuedNs
		samples = append(samples, sm)
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("%s: traced section ran no request in %v", w.name, total)
	}

	// The probe query, optimized from scratch.
	var probeMs []float64
	probes := 3
	if o.smoke {
		probes = 1
	}
	for i := 0; w.probe != "" && i < probes; i++ {
		x := c.do(request{sql: w.probe, cache: "bypass"})
		res.Attempted++
		if err := verifyOne(orc, x); err != nil {
			res.fail(err)
		} else {
			probeMs = append(probeMs, ms(x.reply.OptNs))
		}
	}
	rows, err := referenceCheck(w, e.tpls)
	if err != nil {
		res.fail(err)
	}
	res.Reference = rows
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)

	// Per-layer self times, summed per request and layer.
	self := selfTimes(tr.spans)
	layer := make(map[string]map[int]int64)
	for i, sp := range tr.spans {
		if layer[sp.Name] == nil {
			layer[sp.Name] = make(map[int]int64)
		}
		layer[sp.Name][sp.Req] += self[i]
	}
	layerMedian := func(name string) float64 {
		vals := make([]float64, 0, len(layer[name]))
		for _, v := range layer[name] {
			vals = append(vals, float64(v))
		}
		return median(vals)
	}

	var queryMs, rttMs, overheadUs, execMs, rowsOut, respBytes, hitDoUs, queuedMs []float64
	var replicaNs, queryNs, execNs, rowsSum int64
	execByTpl := make(map[int][]float64)
	writtenByTpl := make(map[int][]float64)
	for id, sm := range samples {
		queryMs = append(queryMs, ms(tr.dur(sm.query)))
		rttMs = append(rttMs, ms(tr.dur(sm.rtt)))
		overheadUs = append(overheadUs, us(tr.dur(sm.rtt)-tr.dur(sm.query)))
		execMs = append(execMs, ms(tr.dur(sm.exec)))
		rowsOut = append(rowsOut, float64(sm.rows))
		respBytes = append(respBytes, float64(sm.bytes))
		queuedMs = append(queuedMs, ms(sm.queuedNs))
		if sm.hit {
			hitDoUs = append(hitDoUs, us(layer["plancache.do"][id]))
		}
		replicaNs += tr.dur(sm.root) - tr.dur(sm.enc)
		queryNs += tr.dur(sm.query)
		execNs += tr.dur(sm.exec)
		rowsSum += int64(sm.rows)
		execByTpl[sm.tpl] = append(execByTpl[sm.tpl], float64(tr.dur(sm.exec)))
		if exp, err := orc.expect(sm.sql); err == nil {
			writtenByTpl[sm.tpl] = append(writtenByTpl[sm.tpl], float64(exp.ns))
		}
	}
	var speedups []float64
	for tpl, chosen := range execByTpl {
		if c, wr := median(chosen), median(writtenByTpl[tpl]); c > 0 && wr > 0 {
			speedups = append(speedups, wr/c)
		}
	}
	sort.Float64s(speedups) // map order must not reach the floating-point sum

	var baseMs []float64
	for _, x := range base {
		baseMs = append(baseMs, ms(x.lat.Nanoseconds()))
	}
	allRtt := sortedCopy(append(append([]float64(nil), baseMs...), rttMs...))

	var optMs, considered []float64
	phase := map[string][]float64{}
	degraded := 0
	for _, run := range rep.opts {
		total := time.Duration(0)
		for name, d := range run.phases {
			phase[name] = append(phase[name], ms(d.Nanoseconds()))
			total += d
		}
		optMs = append(optMs, ms(total.Nanoseconds()))
		considered = append(considered, float64(run.considered))
		if run.degraded {
			degraded++
		}
	}

	// Counters of the HTTP-hosted service over its whole life, warm-up
	// included: a re-plan happens once per template and the warm-up is
	// where it lands.
	snap := e.svc.Observer().Registry.Snapshot()
	cnt := func(name string) float64 { return float64(snap.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perRun := func(name string) float64 { return ratio(cnt(name), cnt("optimizer.runs")) }
	fallbacks := 0.0
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "exec.vector.fallback.") {
			fallbacks += float64(v)
		}
	}
	n := float64(len(base))
	instrumented := 0.0
	if cfg.Feedback {
		instrumented = median(execMs)
	}

	values := map[string]float64{
		"sql.parse_us":                 layerMedian("sql.parse") / 1e3,
		"sql.parameterize_us":          layerMedian("sql.parameterize") / 1e3,
		"sql.lower_us":                 layerMedian("sql.lower") / 1e3,
		"plan.key_us":                  layerMedian("plan.key") / 1e3,
		"plan.bind_us":                 layerMedian("plan.bind") / 1e3,
		"plancache.do_hit_us":          median(hitDoUs),
		"service_http.overhead_us":     median(overheadUs),
		"service_http.resp_bytes":      median(respBytes),
		"service.query_ms":             median(queryMs),
		"service.latency_p99_ms":       quantile(allRtt, 0.99),
		"guard.queue_wait_ms":          median(queuedMs),
		"executor.run_ms":              median(execMs),
		"executor.rows_out":            median(rowsOut),
		"executor.rows_per_s":          ratio(float64(rowsSum), float64(execNs)/1e9),
		"executor.instrumented_run_ms": instrumented,
		"exec.adapt.swaps":             cnt("exec.adapt.swaps"),
		"exec.spill.partitions":        cnt("exec.spill.partitions"),
		"exec.vector.fallbacks":        fallbacks,
		"optimizer.optimize_ms":        median(optMs),
		"optimizer.simplify_ms":        median(phase["simplify"]),
		"optimizer.explore_ms":         median(phase["explore"]),
		"optimizer.cost_ms":            median(phase["cost"]),
		"optimizer.considered":         median(considered),
		"optimizer.degraded_ratio":     ratio(float64(degraded), float64(len(rep.opts))),
		"optimizer.chain6_ms":          median(probeMs),
		"optimizer.plan_speedup":       geomean(speedups),
		"memo.groups":                  perRun("memo.groups"),
		"memo.exprs":                   perRun("memo.exprs"),
		"memo.pruned":                  perRun("memo.pruned"),
		"memo.order.enforced":          perRun("memo.order.enforced"),
		"stats.memo_hit_ratio": ratio(cnt("stats.memo.rows_hits")+cnt("stats.memo.cost_hits"),
			cnt("stats.memo.rows_hits")+cnt("stats.memo.cost_hits")+cnt("stats.memo.rows_misses")+cnt("stats.memo.cost_misses")),
		"stats.analyze_ms":             ms(rep.analyze.Nanoseconds()),
		"plancache.hit_ratio":          ratio(cnt("plancache.hits"), cnt("plancache.hits")+cnt("plancache.misses")),
		"plancache.evictions":          cnt("plancache.evictions"),
		"plancache.refreshes":          cnt("plancache.refreshes"),
		"plancache.singleflight_waits": cnt("plancache.singleflight_waits"),
		"feedback.drift_trips":         cnt("feedback.drift_trips"),
		"feedback.replans":             cnt("feedback.replans"),
		"feedback.corrections":         cnt("feedback.corrections"),
		"feedback.requests_to_replan":  fbToReplan,
		"feedback.first_max_qerror":    fbFirstQ,
		"go.allocs_per_req":            ratio(float64(after.Mallocs-before.Mallocs), n),
		"go.alloc_kb_per_req":          ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, n),
		"go.gc_pause_ms":               ms(int64(after.PauseTotalNs - before.PauseTotalNs)),
		"go.heap_peak_mb":              float64(after.HeapSys) / (1 << 20),
		"trace.coverage":               ratio(float64(replicaNs), float64(queryNs)),
		"trace.overhead_ratio":         ratio(median(rttMs), median(baseMs)),
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = measured{Value: values[def.name], Unit: def.unit, N: len(samples)}
	}
	if cov := values["trace.coverage"]; cov < coverageLo || cov > coverageHi {
		res.Flags = append(res.Flags, fmt.Sprintf("trace.coverage %.3f outside %.2f–%.2f: the replica pipeline has drifted from Service.Query", cov, coverageLo, coverageHi))
	}
	return res, tr, nil
}

// feedbackWarmup reads the feedback loop's first steps off the warm-up
// responses: the largest first-run q-error of any template, and how
// many requests of a template it took until one reported a re-plan
// (0 when none did).
func feedbackWarmup(warm []exchange) (firstQ, toReplan float64) {
	count := make(map[int]int)
	for _, x := range warm {
		if x.err != nil {
			continue
		}
		r := x.reply
		count[x.req.tpl]++
		if count[x.req.tpl] == 1 && r.MaxQError > firstQ {
			firstQ = r.MaxQError
		}
		if r.Replanned && toReplan == 0 {
			toReplan = float64(count[x.req.tpl])
		}
	}
	return firstQ, toReplan
}
