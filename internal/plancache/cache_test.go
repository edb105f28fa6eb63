package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
)

func build(v string, bytes int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, bytes, nil }
}

func TestDoHitMiss(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()

	e, st, err := c.Do(ctx, "k1", 0, build("plan1", 100))
	if err != nil || st != statusMiss || e.Value.(string) != "plan1" {
		t.Fatalf("first access: entry=%v status=%v err=%v", e, st, err)
	}
	e, st, err = c.Do(ctx, "k1", 0, func() (any, int64, error) {
		t.Fatal("build must not run on a hit")
		return nil, 0, nil
	})
	if err != nil || st != Hit || e.Value.(string) != "plan1" {
		t.Fatalf("second access: entry=%v status=%v err=%v", e, st, err)
	}

	stats := c.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 || stats.Bytes != 100 {
		t.Fatalf("stats = %+v", stats)
	}
	if _, ok := c.Lookup("k1"); !ok {
		t.Fatal("Lookup missed a cached key")
	}
	if _, ok := c.Lookup("k2"); ok {
		t.Fatal("Lookup invented an entry")
	}
}

// TestEvictionLRU: exceeding the byte budget evicts from the LRU
// tail, and a recently touched entry survives over a stale one.
func TestEvictionLRU(t *testing.T) {
	// 100 bytes; 40-byte entries → 2 fit.
	c := New(100, obs.NewRegistry())
	ctx := context.Background()

	c.Do(ctx, "a", 0, build("A", 40))
	c.Do(ctx, "b", 0, build("B", 40))
	c.Do(ctx, "a", 0, build("", 0)) // touch a: now b is LRU
	c.Do(ctx, "c", 0, build("C", 40))

	if _, ok := c.Lookup("b"); ok {
		t.Fatal("b was LRU and should have been evicted")
	}
	if _, ok := c.Lookup("a"); !ok {
		t.Fatal("a was touched and must survive")
	}
	if _, ok := c.Lookup("c"); !ok {
		t.Fatal("c is newest and must survive")
	}
	st := c.Stats()
	if st.Evicted != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBudgetIsWholeCache: the byte budget bounds the cache as a whole,
// whatever the keys' hashes. Three 40-byte entries under distinct
// hashes do not fit in 100 bytes, so the least recently used one goes.
func TestBudgetIsWholeCache(t *testing.T) {
	c := New(100, obs.NewRegistry())
	ctx := context.Background()
	for i, k := range []string{"a", "b", "c"} {
		if _, _, err := c.Do(ctx, k, uint64(i), build(k, 40)); err != nil {
			t.Fatal(err)
		}
		if got := c.Bytes(); got > 100 {
			t.Fatalf("after %q: Bytes = %d, over the 100-byte budget", k, got)
		}
	}
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("a was least recently used and should have been evicted")
	}
	if st := c.Stats(); st.Evicted != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOversizedEntryStillServes: an entry larger than the whole budget
// evicts everything else but is itself retained — one giant plan
// degrades capacity, never availability.
func TestOversizedEntryStillServes(t *testing.T) {
	c := New(100, obs.NewRegistry())
	ctx := context.Background()
	c.Do(ctx, "small", 0, build("s", 40))
	c.Do(ctx, "huge", 0, build("h", 500))
	if _, ok := c.Lookup("huge"); !ok {
		t.Fatal("oversized newest entry must be kept")
	}
	if _, ok := c.Lookup("small"); ok {
		t.Fatal("small entry should have been evicted to make room")
	}
	if got := c.Bytes(); got != 500 {
		t.Fatalf("Bytes = %d, want 500", got)
	}
}

// TestSingleflight: N concurrent misses on one key run the build
// exactly once; everyone shares the result.
func TestSingleflight(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()

	var builds atomic.Int64
	release := make(chan struct{})
	slow := func() (any, int64, error) {
		builds.Add(1)
		<-release
		return "built", 64, nil
	}

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]Status, n)
	errs := make([]error, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, st, err := c.Do(ctx, "k", 0, slow)
			statuses[i], errs[i] = st, err
			if e != nil {
				vals[i] = e.Value
			}
		}(i)
	}
	// Let every goroutine reach the flight before releasing the build.
	deadline := time.After(5 * time.Second)
	for c.Stats().Waits < n-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d waiters joined the flight", c.Stats().Waits)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	miss, shared := 0, 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if vals[i] != "built" {
			t.Fatalf("goroutine %d got %v", i, vals[i])
		}
		switch statuses[i] {
		case statusMiss:
			miss++
		case statusShared:
			shared++
		default:
			t.Fatalf("goroutine %d: status %v", i, statuses[i])
		}
	}
	if miss != 1 || shared != n-1 {
		t.Fatalf("miss=%d shared=%d, want 1 and %d", miss, shared, n-1)
	}
}

// TestSingleflightWaiterCancel: a waiter whose context expires leaves
// with a typed cancellation; the build itself and other waiters are
// unaffected.
func TestSingleflightWaiterCancel(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	release := make(chan struct{})
	go c.Do(context.Background(), "k", 0, func() (any, int64, error) {
		<-release
		return "v", 8, nil
	})
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := c.Do(ctx, "k", 0, build("other", 8))
	if st != statusShared || !guard.IsCancelled(err) {
		t.Fatalf("cancelled waiter: status=%v err=%v", st, err)
	}
	close(release)

	// The original build still completes and serves later hits.
	for c.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	if e, st, err := c.Do(context.Background(), "k", 0, build("x", 8)); err != nil || st != Hit || e.Value != "v" {
		t.Fatalf("after cancel: entry=%v status=%v err=%v", e, st, err)
	}
}

// TestBuildErrorNotCached: a failing build reports its error to the
// caller (and any waiters) but caches nothing — the next request
// retries and can succeed.
func TestBuildErrorNotCached(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	boom := errors.New("optimizer exploded")

	if _, st, err := c.Do(ctx, "k", 0, func() (any, int64, error) {
		return nil, 0, boom
	}); st != statusMiss || !errors.Is(err, boom) {
		t.Fatalf("status=%v err=%v", st, err)
	}
	if c.Len() != 0 {
		t.Fatal("error outcome must not be cached")
	}
	if e, st, err := c.Do(ctx, "k", 0, build("ok", 8)); err != nil || st != statusMiss || e.Value != "ok" {
		t.Fatalf("retry: entry=%v status=%v err=%v", e, st, err)
	}
}

// TestBuildPanicContained: a panicking build resolves the flight with
// a typed panic error; neither the caller nor any waiter wedges, and
// the key remains buildable.
func TestBuildPanicContained(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()

	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", 0, func() (any, int64, error) {
			<-release
			panic("plan construction bug")
		})
		done <- err
	}()
	for c.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", 0, build("x", 8))
		waiter <- err
	}()
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i, ch := range []chan error{done, waiter} {
		select {
		case err := <-ch:
			if !guard.IsPanic(err) {
				t.Fatalf("outcome %d: want contained panic, got %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("outcome %d: wedged after build panic", i)
		}
	}
	if e, st, err := c.Do(ctx, "k", 0, build("ok", 8)); err != nil || st != statusMiss || e.Value != "ok" {
		t.Fatalf("after panic: entry=%v status=%v err=%v", e, st, err)
	}
}

// TestFaultLookup / TestFaultInsert cover the fault matrix for the two
// plancache points: injected errors and panics surface as typed errors
// and never wedge later requests on the same key.
func TestFaultLookup(t *testing.T) {
	defer guard.Clear()
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()

	guard.InjectError(guard.PointCacheLookup)
	if _, _, err := c.Do(ctx, "k", 0, build("v", 8)); !guard.IsInjected(err) {
		t.Fatalf("want injected error, got %v", err)
	}
	guard.Clear()
	if _, st, err := c.Do(ctx, "k", 0, build("v", 8)); err != nil || st != statusMiss {
		t.Fatalf("after fault cleared: status=%v err=%v", st, err)
	}
}

func TestFaultInsert(t *testing.T) {
	defer guard.Clear()
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()

	guard.InjectError(guard.PointCacheInsert)
	if _, _, err := c.Do(ctx, "k", 0, build("v", 8)); !guard.IsInjected(err) {
		t.Fatalf("want injected error, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed insert must cache nothing")
	}

	guard.InjectPanic(guard.PointCacheInsert)
	if _, _, err := c.Do(ctx, "k", 0, build("v", 8)); !guard.IsPanic(err) {
		t.Fatalf("want contained panic, got %v", err)
	}

	guard.Clear()
	if e, st, err := c.Do(ctx, "k", 0, build("v", 8)); err != nil || st != statusMiss || e.Value != "v" {
		t.Fatalf("recovery after faults: entry=%v status=%v err=%v", e, st, err)
	}
}

// TestConcurrentMixedKeys drives many goroutines over overlapping keys
// under -race: counters stay consistent and every successful access
// yields the value its key's build produced.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(100, obs.NewRegistry()) // three of the seven keys fit: evictions happen constantly
	ctx := context.Background()
	const goroutines = 12
	const rounds = 200

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("key-%d", (g+r)%7)
				want := "plan:" + k
				e, _, err := c.Do(ctx, k, 0, build(want, 30))
				if err != nil {
					t.Error(err)
					return
				}
				if e.Value.(string) != want {
					t.Errorf("key %s yielded %v", k, e.Value)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no accesses recorded")
	}
	if got := c.Bytes(); got > 100 {
		t.Fatalf("byte accounting drifted above budget: %d", got)
	}
}

// Lookup returns the cached entry without building on a miss.
func (c *Cache) Lookup(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*Entry), true
	}
	return nil, false
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the cache's current charged footprint.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
