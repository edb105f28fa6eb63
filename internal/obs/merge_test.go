package obs

import (
	"testing"
)

func TestRegistryMerge(t *testing.T) {
	agg := NewRegistry()
	agg.Counter("runs").Add(1)
	agg.Histogram("ns").Observe(100)

	run := NewRegistry()
	run.Counter("runs").Add(1)
	run.Counter("memo.waves").Add(3)
	run.Gauge("last").Set(42)
	run.Histogram("ns").Observe(7)
	run.Histogram("ns").Observe(200000)

	agg.Merge(run)
	s := agg.Snapshot()
	if s.Counters["runs"] != 2 || s.Counters["memo.waves"] != 3 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	if s.Gauges["last"] != 42 {
		t.Fatalf("merged gauge = %v", s.Gauges)
	}
	h := s.Histograms["ns"]
	if h.Count != 3 || h.Sum != 200107 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if h.Min != 7 || h.Max != 200000 {
		t.Fatalf("merged min/max = %d/%d, want 7/200000", h.Min, h.Max)
	}
	// Merging a nil src is a no-op; merging into nil goes to Default.
	agg.Merge(nil)
	if agg.Snapshot().Counters["runs"] != 2 {
		t.Fatal("nil merge changed the registry")
	}
}

func TestMergePreservesBucketQuantiles(t *testing.T) {
	agg := NewRegistry()
	run1, run2 := NewRegistry(), NewRegistry()
	for i := 0; i < 99; i++ {
		run1.Histogram("h").Observe(1)
	}
	run2.Histogram("h").Observe(1 << 30)
	agg.Merge(run1)
	agg.Merge(run2)
	h := agg.Snapshot().Histograms["h"]
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.P50 != 1 {
		t.Fatalf("p50 = %d, want 1", h.P50)
	}
	if h.P99 != 1 {
		t.Fatalf("p99 = %d, want 1 (99 of 100 observations are 1)", h.P99)
	}
}
