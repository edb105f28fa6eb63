package obs

import (
	"fmt"
	"sync"
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

// TestMergeBothWays merges two registries into each other at once while
// a third goroutine keeps creating metrics on both (so writers queue on
// both locks): Merge never holds two registries' locks, so this ends,
// and each side ends up with the counter it started with plus what the
// other held at some point.
func TestMergeBothWays(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("a").Add(1)
	b.Counter("b").Add(1)
	var wg sync.WaitGroup
	for _, pair := range [][2]*Registry{{a, b}, {b, a}} {
		wg.Add(1)
		go func(dst, src *Registry) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dst.Merge(src)
			}
		}(pair[0], pair[1])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a.Counter(fmt.Sprint("new.a", i)).Inc()
			b.Histogram(fmt.Sprint("new.b", i)).Observe(1)
		}
	}()
	wg.Wait()
	if a.Counter("b").Value() == 0 || b.Counter("a").Value() == 0 {
		t.Fatalf("after merging both ways: a has b=%d, b has a=%d", a.Counter("b").Value(), b.Counter("a").Value())
	}
}

func TestCountersWithPrefix(t *testing.T) {
	r := NewRegistry()
	if got := r.CountersWithPrefix("memo."); got != nil {
		t.Fatalf("empty registry: %v, want nil", got)
	}
	r.Counter("memo.waves").Add(3)
	r.Counter("guard.trips").Add(1)
	r.Counter("executor.ops").Add(9)
	r.Histogram("memo.ns").Observe(5)
	got := r.CountersWithPrefix("memo.", "guard.")
	if len(got) != 2 || got["memo.waves"] != 3 || got["guard.trips"] != 1 {
		t.Fatalf("CountersWithPrefix = %v, want memo.waves=3 guard.trips=1", got)
	}
	if got := r.CountersWithPrefix("optimizer."); got != nil {
		t.Fatalf("no match: %v, want nil", got)
	}
}
