package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro"
)

const (
	// clients is the size of the closed loop: one SQL session on one
	// keep-alive connection, which waits for its reply before it sends
	// the next statement. The host has two cores and the service runs
	// in this process, so one session already keeps one core busy with
	// requests and most of the other with the collector; a second one
	// made every request wait for the other's garbage (each template's
	// latency then spread by a factor of two within a run) and made the
	// result follow whatever else the host was running.
	clients = 1
	// requestTimeout is ServiceConfig.DefaultTimeout; no request of
	// any workload comes near it, so a timeout is a failure.
	requestTimeout = 30 * time.Second
	// setupRuns is how often a pass sets up before it keeps one:
	// set-up time is reported as the median, since a single set-up
	// pays for a cold heap and page faults the others do not.
	setupRuns = 5
)

func serviceConfig(w *workload, db reorder.Database) reorder.ServiceConfig {
	cfg := reorder.ServiceConfig{DB: db, DefaultTimeout: requestTimeout}
	if w.tune != nil {
		w.tune(&cfg)
	}
	return cfg
}

// exchange is one request with what the client saw of the response.
// The body is digested as soon as the round trip has been timed and
// then dropped: keeping bodies until the repetition ends grows the
// live heap by a share that moves the garbage collector's pace, and
// with it the very latency being measured. Digests are compared with
// the oracle after the timed section.
type exchange struct {
	req   request
	lat   time.Duration
	bytes int
	reply replyMeta
	got   answer
	err   error // transport error, non-200 status or undecodable body
}

// client is one closed-loop session on its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(base string) *client {
	return &client{url: base + "/query", hc: &http.Client{
		Timeout:   requestTimeout + 5*time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do posts one request and reads the whole response; the latency is
// the client-observed round trip.
func (c *client) do(r request) exchange {
	payload, err := json.Marshal(reorder.Request{SQL: r.sql, Cache: r.cache})
	if err != nil {
		return exchange{req: r, err: err}
	}
	start := time.Now()
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return exchange{req: r, err: err, lat: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	x := exchange{req: r, lat: time.Since(start), bytes: len(body), err: err}
	resp.Body.Close()
	if err != nil {
		return x
	}
	if resp.StatusCode != http.StatusOK {
		x.err = fmt.Errorf("http %d: %.200s", resp.StatusCode, body)
		return x
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		x.err = fmt.Errorf("bad response: %w", err)
		return x
	}
	x.reply, x.got = rp.replyMeta, digestReply(&rp)
	return x
}

// env is one self-hosted service: the workload's database behind
// reorder.Service's own HTTP handler on a loopback listener.
type env struct {
	w      *workload
	tpls   []template
	db     reorder.Database
	svc    *reorder.Service
	srv    *http.Server
	served chan struct{}
	url    string
	warm   []exchange
}

// setup generates the data (the reduced copy in smoke mode), builds
// the service (its ANALYZE step), starts the listener and plays the
// untimed warm-up.
func setup(w *workload, o options) (*env, error) {
	e := &env{w: w, tpls: w.templates(), db: w.db(o.smoke), served: make(chan struct{})}
	svc, err := reorder.NewService(serviceConfig(w, e.db))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.svc = svc
	e.srv = &http.Server{Handler: svc.Handler()}
	e.url = "http://" + ln.Addr().String()
	go func() {
		defer close(e.served)
		_ = e.srv.Serve(ln) // always returns ErrServerClosed after close()
	}()
	c := newClient(e.url)
	defer c.close()
	s := newStream(w, e.tpls, o.seed, -1)
	for i := 0; i < w.warm; i++ {
		e.warm = append(e.warm, c.do(s.next()))
	}
	return e, nil
}

// close stops the listener and waits for the serving goroutine.
func (e *env) close() {
	_ = e.srv.Close() // no request is in flight; nothing to report
	<-e.served
}

// timedReps plays the stream closed-loop for dur, cut into reps
// repetitions: the next request goes out as soon as the previous reply
// has been read. A repetition ends at the first block boundary of the
// stream past its share of dur, so every repetition plays whole blocks
// and, on the workloads with an even mix, exactly the same templates in
// the same shares; what differs between two repetitions is the
// constants and the state of the host.
func timedReps(c *client, s *stream, dur time.Duration, reps int) []repetition {
	var out []repetition
	begin := time.Now()
	for rep := 1; rep <= reps; rep++ {
		end := begin.Add(dur * time.Duration(rep) / time.Duration(reps))
		var r repetition
		start := time.Now()
		for time.Now().Before(end) || !s.atBlockStart() {
			r.xs = append(r.xs, c.do(s.next()))
		}
		r.wall = time.Since(start)
		if len(r.xs) > 0 { // a block that overran the whole next share leaves it empty
			out = append(out, r)
		}
	}
	return out
}

// repetition is one timed slice of the end-to-end pass.
type repetition struct {
	xs   []exchange
	wall time.Duration
}

// verify checks every exchange against the oracle and returns the
// failures (non-200, transport error or timeout, wrong answer).
func verify(orc *oracle, xs []exchange) []error {
	seen := make(map[string]bool)
	var distinct []string
	for _, x := range xs {
		if !seen[x.req.sql] {
			seen[x.req.sql] = true
			distinct = append(distinct, x.req.sql)
		}
	}
	orc.prepare(distinct)
	var errs []error
	for _, x := range xs {
		if err := verifyOne(orc, x); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func verifyOne(orc *oracle, x exchange) error {
	if x.err != nil {
		return fmt.Errorf("request %q: %w", x.req.sql, x.err)
	}
	return orc.check(x.req.sql, x.got)
}

// passResult is what one pass (end-to-end or traced) of one workload
// reports.
type passResult struct {
	Workload  string              `json:"workload"`
	Trace     bool                `json:"trace"`
	Metrics   map[string]measured `json:"metrics"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	FailRatio float64             `json:"fail_ratio"`
	Requests  []int               `json:"requests_per_rep,omitempty"`
	// PerRep holds the per-repetition values behind each metric's
	// quartiles.
	PerRep map[string][]float64 `json:"per_rep,omitempty"`
	// Latency is the pooled round-trip distribution in ms, as context
	// for the two percentiles that are metrics.
	Latency   map[string]float64 `json:"latency_ms,omitempty"`
	Reference int                `json:"reference_rows_compared"`
	VerifyS   float64            `json:"verify_s"`
	Flags     []string           `json:"flags,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

func (r *passResult) fail(errs ...error) {
	r.Failed += len(errs)
	for _, err := range errs {
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

func (r *passResult) correct() bool { return r.Failed == 0 }

// options are the run parameters shared by both passes.
type options struct {
	seed    int64
	seconds float64
	reps    int
	smoke   bool
	// tamper, set by tests only, corrupts the expected answer of the
	// first timed request.
	tamper bool
}

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off: setupRuns set-ups, then reps timed closed-loop
// repetitions of about seconds/reps each, back to back, on the last
// one.
func runEndToEnd(w *workload, o options) (*passResult, error) {
	res := &passResult{Workload: w.name, Metrics: make(map[string]measured)}
	setups := 1
	if !o.smoke {
		setups = setupRuns
		spinUp()
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(w, o); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer e.close()

	verifyStart := time.Now()
	orc := newOracle(e.db)
	if errs := verify(orc, e.warm); len(errs) > 0 {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, errs[0])
	}
	verifyTime := time.Since(verifyStart)

	c := newClient(e.url)
	defer c.close()
	runtime.GC()
	timed := timedReps(c, newStream(w, e.tpls, o.seed, 0), time.Duration(o.seconds*float64(time.Second)), o.reps)
	if len(timed) == 0 {
		return nil, fmt.Errorf("%s: no request fits into %gs", w.name, o.seconds)
	}

	// Checking comes after the timed section, so it takes no time from
	// a repetition and leaves no garbage in one.
	verifyStart = time.Now()
	if o.tamper {
		orc.corrupt(timed[0].xs[0].req.sql)
	}
	var all, repP50, repP95, repQPS []float64
	repLats := make([][]float64, len(timed))
	for i, r := range timed {
		errs := verify(orc, r.xs)
		res.Attempted += len(r.xs)
		res.fail(errs...)
		res.Requests = append(res.Requests, len(r.xs))
		lats := make([]float64, len(r.xs))
		for j, x := range r.xs {
			lats[j] = ms(x.lat.Nanoseconds())
		}
		sort.Float64s(lats)
		repLats[i] = lats
		all = append(all, lats...)
		repP50 = append(repP50, quantile(lats, 0.50))
		repP95 = append(repP95, quantile(lats, 0.95))
		repQPS = append(repQPS, float64(len(r.xs)-len(errs))/r.wall.Seconds())
	}
	verifyTime += time.Since(verifyStart)

	quiet := quieterHalf(repQPS, repLats)
	sort.Float64s(all)
	res.PerRep = map[string][]float64{"latency_p50_ms": repP50, "latency_p95_ms": repP95, "qps": repQPS, "setup_s": setupS}
	res.Latency = make(map[string]float64)
	for _, p := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99} {
		res.Latency[fmt.Sprintf("p%02.0f", p*100)] = quantile(all, p)
	}

	verifyStart = time.Now()
	res.fail(crossCheck(e, orc, c, o.seed)...)
	rows, err := referenceCheck(w, e.tpls)
	if err != nil {
		res.fail(err)
	}
	res.Reference = rows
	res.VerifyS = (verifyTime + time.Since(verifyStart)).Seconds()
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)

	for _, def := range endToEnd {
		var m measured
		switch def.name {
		case "latency_p50_ms":
			m = pooledPercentile(def, quiet, 0.50, repP50)
		case "latency_p95_ms":
			m = pooledPercentile(def, quiet, 0.95, repP95)
		case "qps":
			m = summarize(def, median(repQPS), repQPS)
		case "setup_s":
			m = summarize(def, median(setupS), setupS)
		}
		if m.Unresolved {
			res.Flags = append(res.Flags, def.name+" unresolved: too few samples, or a spread across repetitions above its bound")
		}
		res.Metrics[def.name] = m
	}
	return res, nil
}

// quieterHalf pools the latency samples of the repetitions that were at
// least as fast as the median one, in ascending order. The latency
// percentiles are taken over them: noise on a shared host only ever
// slows a repetition down, and a spell of it that covers less than
// half the run then moves neither the percentiles nor the median qps,
// where a percentile over every sample has its p95 set by a spell
// covering a tenth of the run.
func quieterHalf(repQPS []float64, repLats [][]float64) []float64 {
	var quiet []float64
	for i, cut := 0, median(repQPS); i < len(repQPS); i++ {
		if repQPS[i] >= cut {
			quiet = append(quiet, repLats[i]...)
		}
	}
	sort.Float64s(quiet)
	return quiet
}

// pooledPercentile reports a latency percentile over the pooled
// samples of the quieter repetitions. When the pool cannot support it (smoke
// runs, or a host several times slower than the sizes were tuned on)
// the sample maximum stands in for it, says so, and is unresolved.
func pooledPercentile(def metricDef, pooled []float64, p float64, perRep []float64) measured {
	v, err := percentile(pooled, p)
	m := summarize(def, v, perRep)
	if err != nil {
		m.Value = pooled[len(pooled)-1]
		m.Unresolved = true
		m.Note = "clamped to the maximum: " + err.Error()
	}
	return m
}

// crossCheck sends one request of every checked template through the
// cache mode the workload does not use, so an answer is also compared
// across cache hit, fresh plan and bypass.
func crossCheck(e *env, orc *oracle, c *client, seed int64) []error {
	other := "bypass"
	if e.w.cache == "bypass" {
		other = ""
	}
	rng := rand.New(rand.NewSource(seed))
	var xs []exchange
	for _, i := range checkedSample(len(e.tpls)) {
		xs = append(xs, c.do(request{tpl: i, sql: e.tpls[i].sql(rng), cache: other}))
	}
	return verify(orc, xs)
}
