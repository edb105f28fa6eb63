package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression (0 for per-layer metrics, which have
// none).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a client of the service sees. fail_ratio is
// printed beside them but not listed: it is 0 on every workload, and
// the result line carries it as failed/attempted.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-pass metrics, named <module>.<metric>.
// README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{"sql.parse_us", "us", "lower", 0},
	{"sql.parameterize_us", "us", "lower", 0},
	{"sql.lower_us", "us", "lower", 0},
	{"plan.key_us", "us", "lower", 0},
	{"plan.bind_us", "us", "lower", 0},
	{"plancache.do_hit_us", "us", "lower", 0},
	{"service_http.overhead_us", "us", "lower", 0},
	{"service_http.resp_bytes", "bytes", "lower", 0},
	{"service.query_ms", "ms", "lower", 0},
	{"service.latency_p99_ms", "ms", "lower", 0},
	{"guard.queue_wait_ms", "ms", "lower", 0},
	{"executor.run_ms", "ms", "lower", 0},
	{"executor.rows_out", "rows", "higher", 0},
	{"executor.rows_per_s", "rows/s", "higher", 0},
	{"executor.instrumented_run_ms", "ms", "lower", 0},
	{"exec.adapt.swaps", "count", "higher", 0},
	{"exec.spill.partitions", "count", "lower", 0},
	{"exec.vector.fallbacks", "count", "lower", 0},
	{"optimizer.optimize_ms", "ms", "lower", 0},
	{"optimizer.simplify_ms", "ms", "lower", 0},
	{"optimizer.explore_ms", "ms", "lower", 0},
	{"optimizer.cost_ms", "ms", "lower", 0},
	{"optimizer.considered", "count", "lower", 0},
	{"optimizer.degraded_ratio", "ratio", "lower", 0},
	{"optimizer.chain6_ms", "ms", "lower", 0},
	{"optimizer.plan_speedup", "x", "higher", 0},
	{"memo.groups", "count", "lower", 0},
	{"memo.exprs", "count", "lower", 0},
	{"memo.pruned", "count", "higher", 0},
	{"memo.order.enforced", "count", "lower", 0},
	{"stats.memo_hit_ratio", "ratio", "higher", 0},
	{"stats.analyze_ms", "ms", "lower", 0},
	{"plancache.hit_ratio", "ratio", "higher", 0},
	{"plancache.evictions", "count", "lower", 0},
	{"plancache.refreshes", "count", "lower", 0},
	{"plancache.singleflight_waits", "count", "lower", 0},
	{"feedback.drift_trips", "count", "lower", 0},
	{"feedback.replans", "count", "lower", 0},
	{"feedback.corrections", "count", "lower", 0},
	{"feedback.requests_to_replan", "count", "lower", 0},
	{"feedback.first_max_qerror", "x", "lower", 0},
	{"go.allocs_per_req", "count", "lower", 0},
	{"go.alloc_kb_per_req", "KiB", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.heap_peak_mb", "MiB", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the percentile is one or two outliers and
// not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// ascending sorted values, and refuses when fewer than minBeyond
// samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if beyond := n - int(math.Ceil(p*float64(n))); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return quantile(sorted, p), nil
}

// quantile is percentile without the refusal, for values that are
// reported as context and not as a claim: it clamps to the sample.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is
// what the acceptance check of the benchmark uses. Fewer than two
// values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := sortedCopy(vals)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// measured is one reported value with its dispersion across
// repetitions.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1, Q3 and N describe the per-repetition values behind Value.
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	N  int     `json:"n"`
	// Unresolved is set when the inter-quartile spread exceeds the
	// metric's bound: a comparison of this value against another run
	// decides nothing.
	Unresolved bool `json:"unresolved,omitempty"`
	// Note says why a value is weaker than its name claims (a
	// percentile clamped in smoke mode).
	Note string `json:"note,omitempty"`
}

// summarize builds a measured from the headline value and the
// per-repetition values it is judged by.
func summarize(def metricDef, value float64, perRep []float64) measured {
	q1, q3 := quartiles(perRep)
	m := measured{Value: value, Unit: def.unit, Q1: q1, Q3: q3, N: len(perRep)}
	if med := median(perRep); def.bound > 0 && med > 0 && (q3-q1)/med > def.bound {
		m.Unresolved = true
	}
	return m
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }
