package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestObsConcurrentCounters hammers one counter and one gauge from
// many goroutines; run under -race this also proves the update paths
// are data-race free.
func TestObsConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("test.hits").Inc()
				r.Counter("test.bulk").Add(3)
				r.Gauge("test.level").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test.hits").Value(); got != workers*perWorker {
		t.Errorf("hits = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("test.bulk").Value(); got != 3*workers*perWorker {
		t.Errorf("bulk = %d, want %d", got, 3*workers*perWorker)
	}
	if got := r.Gauge("test.level").value(); got != workers*perWorker {
		t.Errorf("level = %d, want %d", got, workers*perWorker)
	}
}

// TestObsConcurrentHistogram checks count/sum/min/max under
// concurrent observation.
func TestObsConcurrentHistogram(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= perWorker; i++ {
				r.Histogram("test.lat").Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("test.lat")
	if h.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count(), workers*perWorker)
	}
	wantSum := int64(workers) * perWorker * (perWorker + 1) / 2
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
	snap := r.Snapshot().Histograms["test.lat"]
	if snap.Min != 1 || snap.Max != perWorker {
		t.Errorf("min/max = %d/%d, want 1/%d", snap.Min, snap.Max, perWorker)
	}
	if snap.P50 < 255 || snap.P50 > 511 {
		t.Errorf("p50 = %d, want within [255,511] (median 250.5 rounds to bucket bound)", snap.P50)
	}
}

// TestObsHistogramBuckets pins the power-of-two bucketing and
// quantile bounds on a deterministic distribution.
func TestObsHistogramBuckets(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{0, 1, 1, 2, 3, 900} {
		h.Observe(v)
	}
	if got := h.quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0", got)
	}
	// rank ceil(0.5*6)=3 lands in the two 1s + the 0 → bucket 1, bound 1.
	if got := h.quantile(0.5); got != 1 {
		t.Errorf("q0.5 = %d, want 1", got)
	}
	if got := h.quantile(1); got != 1023 {
		t.Errorf("q1 = %d, want 1023 (900 is in [512,1024))", got)
	}
	if h.mean() != (1+1+2+3+900)/6.0 {
		t.Errorf("mean = %f", h.mean())
	}
}

// TestObsEmptyHistogramSnapshot: an unobserved histogram must not
// leak its sentinels into the snapshot.
func TestObsEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	_ = r.Histogram("test.empty")
	snap := r.Snapshot().Histograms["test.empty"]
	if snap.Min != 0 || snap.Max != 0 || snap.Count != 0 {
		t.Errorf("empty snapshot = %+v, want zeros", snap)
	}
	if got := r.Histogram("test.empty").quantile(0.9); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestObsConcurrentRegistryCreation races get-or-create on the same
// and different names; every goroutine must land on the same metric
// instance for a given name.
func TestObsConcurrentRegistryCreation(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.Counter("shared").Inc()
			r.Histogram("shared.h").Observe(int64(w))
			r.Gauge("shared.g").Set(int64(w))
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 32 {
		t.Errorf("shared counter = %d, want 32 (lost a creation race?)", got)
	}
	if got := r.Histogram("shared.h").Count(); got != 32 {
		t.Errorf("shared histogram count = %d, want 32", got)
	}
}

// TestObsSnapshotJSONRoundTrip: the snapshot must survive
// marshal/unmarshal bit-for-bit — this is the EXPLAIN ANALYZE JSON
// contract.
func TestObsSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(100)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["a.b"] != 7 || got.Gauges["g"] != -2 || got.Histograms["h"].Count != 1 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

// TestObsSnapshotString checks the text rendering is sorted and
// complete.
func TestObsSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Inc()
	out := r.Snapshot().String()
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "z.last") {
		t.Fatalf("missing metrics in %q", out)
	}
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Errorf("output not sorted:\n%s", out)
	}
}

// TestObsDefaultRegistry: nil receivers route to the shared default.
func TestObsDefaultRegistry(t *testing.T) {
	before := Default().Counter("via.nil").Value()
	var nilReg *Registry
	nilReg.Counter("via.nil").Inc()
	if got := Default().Counter("via.nil").Value(); got != before+1 {
		t.Errorf("default counter = %d, want %d", got, before+1)
	}
}

// TestObsHistogramExtremes: observations at the int64 edges must not
// panic or mis-bucket.
func TestObsHistogramExtremes(t *testing.T) {
	h := newHistogram()
	h.Observe(math.MaxInt64)
	h.Observe(math.MinInt64)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.quantile(1); got != math.MaxInt64 {
		t.Errorf("q1 = %d, want MaxInt64", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }
