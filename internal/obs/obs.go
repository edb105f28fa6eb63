// Package obs is the engine's zero-dependency observability layer: a
// lightweight metrics registry of counters, gauges and histograms,
// all safe for concurrent update via atomics. The optimizer records
// runs, rule firings, memo sizes and per-phase wall time into it; the
// executor records the events a plan annotation does not carry
// (fallbacks, spills, hash collisions), while each
// operator's rows, time and join figures stay on its annotation. Each
// fact is metered once, where it is known. Snapshots serialize to
// JSON, which is how EXPLAIN ANALYZE output reaches external tooling
// and the benchmarks.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64, safe for concurrent
// use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (either sign).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: bucket i holds values v with
// 2^(i-1) <= v < 2^i (bucket 0 holds v <= 0 and v == 1 lands in
// bucket 1), covering the whole int64 range.
const histBuckets = 65

// Histogram accumulates an int64 distribution in power-of-two
// buckets, safe for concurrent use. It is sized for nanosecond
// timings and row counts alike; quantiles are approximate (bucket
// upper bound). Obtain instances from newHistogram or a Registry —
// the zero value has uninitialized min/max sentinels.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // MaxInt64 while empty
	max     atomic.Int64 // MinInt64 while empty
	buckets [histBuckets]atomic.Int64
}

// newHistogram returns an empty histogram.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	lower(&h.min, v)
	raise(&h.max, v)
	h.buckets[bucketOf(v)].Add(1)
}

// lower sets a to v when v is smaller.
func lower(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// raise sets a to v when v is larger.
func raise(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a wall-time measurement in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// mean returns the average observation, or 0 when empty.
func (h *Histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// quantile returns an upper bound for the q-quantile (q in [0,1])
// from the bucket boundaries, or 0 when empty.
func (h *Histogram) quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == 0 {
				return 0
			}
			if i >= 63 {
				return math.MaxInt64
			}
			return int64(1)<<uint(i) - 1
		}
	}
	return h.max.Load()
}

// Bucket is one occupied histogram bucket in a snapshot: Le is the
// bucket's inclusive upper bound (0, 1, 3, 7, …, 2^i-1) and N its
// non-cumulative observation count. Only occupied buckets are
// exported, so the slice stays small; the Prometheus writer
// re-accumulates them into the format's cumulative le series.
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// bucketBound returns bucket i's inclusive upper bound.
func bucketBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// HistogramSnapshot is the serializable summary of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Mean:  h.mean(),
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
	}
	if s.Count > 0 {
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketBound(i), N: n})
		}
	}
	return s
}

// merge folds src's observations into h: counts, sums and buckets add,
// min widens from src's min and max from src's max. Safe against
// concurrent observation of either side: a src caught mid-Observe
// still holds its sentinels, which widen nothing.
func (h *Histogram) merge(src *Histogram) {
	n := src.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(src.sum.Load())
	for i := 0; i < histBuckets; i++ {
		if b := src.buckets[i].Load(); b > 0 {
			h.buckets[i].Add(b)
		}
	}
	lower(&h.min, src.min.Load())
	raise(&h.max, src.max.Load())
}

// Registry holds named metrics. Lookups get-or-create, so callers
// never register up front; names are free-form dotted paths
// ("optimizer.phase.explore_ns"). Labeled metrics come from the
// vectors of labels.go. The zero value is an empty registry: each map
// is made on its first write, so a run that meters nothing allocates
// nothing beyond the struct.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, the sink for code paths
// that are not handed an explicit one (e.g. an executor.Exec run with
// no budget and no Obs registry).
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Safe
// to call on a nil registry (falls back to Default).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		if r.counters == nil {
			r.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		if r.gauges == nil {
			r.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		if r.histograms == nil {
			r.histograms = make(map[string]*Histogram)
		}
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Merge folds src's metrics into r: counters add, gauges take src's
// value, histograms merge bucket-wise (counts, sums and buckets add,
// min/max widen). This is how a per-query private registry — the
// EXPLAIN ANALYZE isolation contract — feeds a process-wide aggregate
// one for /metrics exposition without the query paths ever contending
// on shared metric maps. Safe for concurrent use on both sides.
func (r *Registry) Merge(src *Registry) {
	if src == nil {
		return
	}
	if r == nil {
		r = defaultRegistry
	}
	// One pass over src under its read lock lists the metrics; they
	// fold into r after the lock is released. No goroutine ever holds
	// two registries' locks, so merging A into B while B merges into A
	// cannot deadlock.
	src.mu.RLock()
	items := make([]mergeItem, 0, len(src.counters)+len(src.gauges)+len(src.histograms))
	for name, c := range src.counters {
		items = append(items, mergeItem{name: name, c: c})
	}
	for name, g := range src.gauges {
		items = append(items, mergeItem{name: name, g: g})
	}
	for name, h := range src.histograms {
		items = append(items, mergeItem{name: name, h: h})
	}
	src.mu.RUnlock()
	for _, it := range items {
		switch {
		case it.c != nil:
			r.Counter(it.name).Add(it.c.Value())
		case it.g != nil:
			r.Gauge(it.name).Set(it.g.Value())
		default:
			r.Histogram(it.name).merge(it.h)
		}
	}
}

// mergeItem is one named metric of a registry being merged; exactly
// one of c, g and h is set.
type mergeItem struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// CountersWithPrefix returns the current value of every counter whose
// name starts with one of prefixes, or nil when none does: a read of
// the counters without Snapshot's copies of every gauge and histogram.
func (r *Registry) CountersWithPrefix(prefixes ...string) map[string]int64 {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out map[string]int64
	for name, c := range r.counters {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				if out == nil {
					out = make(map[string]int64)
				}
				out[name] = c.Value()
				break
			}
		}
	}
	return out
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable
// and stable under iteration.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		r = defaultRegistry
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// String renders the snapshot as sorted "name value" lines, the
// -stats output format.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-52s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-52s %d\n", n, s.Gauges[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-52s n=%d sum=%d mean=%.1f min=%d max=%d p50<=%d p95<=%d p99<=%d\n",
			n, h.Count, h.Sum, h.Mean, h.Min, h.Max, h.P50, h.P95, h.P99)
	}
	return b.String()
}

// MarshalJSON keeps Snapshot encodable even when empty.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot
	return json.Marshal(alias(s))
}
