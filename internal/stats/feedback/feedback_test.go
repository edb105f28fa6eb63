package feedback

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
)

func TestFeedbackRecordLookup(t *testing.T) {
	s := New(Options{})
	if _, ok, _ := s.Lookup("k"); ok {
		t.Fatal("lookup hit on empty store")
	}
	if err := s.Record("k", 10, 1000); err != nil {
		t.Fatal(err)
	}
	rows, ok, err := s.Lookup("k")
	if err != nil || !ok {
		t.Fatalf("lookup = %v, %v, %v; want hit", rows, ok, err)
	}
	if rows != 1000 {
		t.Fatalf("first observation should be taken as-is: got %g, want 1000", rows)
	}
}

// TestFeedbackDecayProperty: under repeated identical observations the
// correction converges geometrically to the observed value; for any
// decay d, after each fold the distance to the target shrinks by
// exactly (1-d).
func TestFeedbackDecayProperty(t *testing.T) {
	for _, decay := range []float64{0.25, 0.5, 0.9, 1.0} {
		s := New(Options{})
		s.decay = decay
		const est, actual = 100.0, 5000.0
		if err := s.Record("k", est, actual); err != nil {
			t.Fatal(err)
		}
		prev, _, _ := s.Lookup("k")
		for i := 0; i < 20; i++ {
			if err := s.Record("k", est, actual); err != nil {
				t.Fatal(err)
			}
			cur, _, _ := s.Lookup("k")
			wantGap := (1 - decay) * math.Abs(actual-prev)
			if gap := math.Abs(actual - cur); math.Abs(gap-wantGap) > 1e-6 {
				t.Fatalf("decay %g step %d: gap = %g, want %g", decay, i, gap, wantGap)
			}
			prev = cur
		}
		if final, _, _ := s.Lookup("k"); math.Abs(final-actual) > actual*0.01 {
			t.Fatalf("decay %g: did not converge: %g", decay, final)
		}
	}
}

// TestFeedbackDecayShift: after a workload shift the correction tracks
// the new truth — old history decays away instead of anchoring the
// average forever.
func TestFeedbackDecayShift(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 10; i++ {
		if err := s.Record("k", 100, 10000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := s.Record("k", 100, 50); err != nil {
			t.Fatal(err)
		}
	}
	rows, _, _ := s.Lookup("k")
	if rows > 100 {
		t.Fatalf("after shift to 50, correction = %g; old regime still dominates", rows)
	}
}

// TestFeedbackClampProperty: no single observation can move the
// correction beyond maxRatio of the estimate, in either direction,
// and a negative actual is treated as zero.
func TestFeedbackClampProperty(t *testing.T) {
	s := New(Options{})
	s.decay, s.maxRatio = 1, 100
	cases := []struct {
		est, actual, want float64
	}{
		{10, 1e9, 1000},   // clamped high
		{10, 1e-9, 0.1},   // clamped low
		{10, 500, 500},    // inside the band
		{10, -5, 0.1},     // negative → 0 → clamped to est/ratio
		{0, 12345, 12345}, // no estimate anchor: taken as-is
		{-3, 777, 777},    // negative estimate: taken as-is
		{0, -1, 0},        // negative actual without anchor → 0
	}
	for i, c := range cases {
		key := fmt.Sprintf("k%d", i)
		if err := s.Record(key, c.est, c.actual); err != nil {
			t.Fatal(err)
		}
		if rows, _, _ := s.Lookup(key); math.Abs(rows-c.want) > 1e-9 {
			t.Fatalf("case %d (est %g actual %g): rows = %g, want %g", i, c.est, c.actual, rows, c.want)
		}
	}
}

// TestFeedbackBounded: the store never retains more than maxEntries
// keys, evicting oldest-inserted first, and counts the evictions.
func TestFeedbackBounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Obs: reg})
	s.maxEntries = 8
	for i := 0; i < 50; i++ {
		if err := s.Record(fmt.Sprintf("k%d", i), 10, float64(i)); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 8 {
			t.Fatalf("after %d records, Len = %d > maxEntries 8", i+1, s.Len())
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	// The newest keys survive; the oldest are gone.
	if _, ok, _ := s.Lookup("k0"); ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok, _ := s.Lookup("k49"); !ok {
		t.Fatal("k49 should be retained")
	}
	snap := reg.Snapshot().Counters
	if snap["feedback.store.evictions"] != 42 {
		t.Fatalf("evictions = %d, want 42", snap["feedback.store.evictions"])
	}
	// Re-recording a retained key must not evict anything.
	before := s.Len()
	if err := s.Record("k49", 10, 99); err != nil {
		t.Fatal(err)
	}
	if s.Len() != before {
		t.Fatalf("updating an existing key changed Len %d -> %d", before, s.Len())
	}
}

// TestFeedbackConcurrent: records and lookups race across goroutines;
// run under -race this is the store's memory-safety gate, and the
// invariants (bound respected, lookups never see torn values outside
// the clamp band) hold throughout.
func TestFeedbackConcurrent(t *testing.T) {
	s := New(Options{})
	s.maxEntries, s.maxRatio = 64, 1e3
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(100))
				if rng.Intn(2) == 0 {
					if err := s.Record(key, 10, float64(rng.Intn(5000))); err != nil {
						t.Error(err)
						return
					}
				} else {
					rows, ok, err := s.Lookup(key)
					if err != nil {
						t.Error(err)
						return
					}
					if ok && (rows < 0 || rows > 10*1e3) {
						t.Errorf("lookup %s = %g outside clamp band", key, rows)
						return
					}
				}
				if n := s.Len(); n > 64 {
					t.Errorf("Len = %d > bound", n)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestFeedbackFaults: the feedback.record and feedback.lookup guard
// points surface injected errors as typed failures and leave the
// store unchanged.
func TestFeedbackFaults(t *testing.T) {
	defer guard.Clear()
	s := New(Options{})
	if err := s.Record("k", 10, 100); err != nil {
		t.Fatal(err)
	}

	guard.InjectError(guard.PointFeedbackRecord)
	if err := s.Record("k2", 10, 100); !guard.IsInjected(err) {
		t.Fatalf("Record under fault = %v, want injected", err)
	}
	guard.Clear()
	if _, ok, _ := s.Lookup("k2"); ok {
		t.Fatal("faulted Record must not store")
	}

	guard.InjectError(guard.PointFeedbackLookup)
	if _, _, err := s.Lookup("k"); !guard.IsInjected(err) {
		t.Fatalf("Lookup under fault = %v, want injected", err)
	}
	guard.Clear()
	if rows, ok, err := s.Lookup("k"); err != nil || !ok || rows != 100 {
		t.Fatalf("store damaged by faults: %g %v %v", rows, ok, err)
	}
}
