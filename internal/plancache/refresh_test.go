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

// TestRefreshReplaces: Refresh rebuilds an existing entry in place —
// later Do calls see the new value, byte accounting stays straight,
// and the refresh counter moves.
func TestRefreshReplaces(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(1<<20, reg)
	ctx := context.Background()

	e, st, err := c.Do(ctx, "k", 7, func() (any, int64, error) { return "v1", 100, nil })
	if err != nil || st != statusMiss || e.Value != "v1" {
		t.Fatalf("seed Do = %v %v %v", e, st, err)
	}
	e2, err := c.Refresh(ctx, "k", 7, func() (any, int64, error) { return "v2", 250, nil })
	if err != nil || e2.Value != "v2" {
		t.Fatalf("Refresh = %v %v", e2, err)
	}
	e3, st, err := c.Do(ctx, "k", 7, func() (any, int64, error) {
		t.Fatal("Do after refresh must hit, not rebuild")
		return nil, 0, nil
	})
	if err != nil || st != Hit || e3.Value != "v2" {
		t.Fatalf("Do after refresh = %v %v %v", e3, st, err)
	}
	if got := c.Bytes(); got != 250 {
		t.Fatalf("Bytes = %d, want 250 (old footprint must be released)", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if got := c.Stats().Refreshes; got != 1 {
		t.Fatalf("Stats().Refreshes = %d, want 1", got)
	}
}

// TestRefreshErrorKeepsOld: a failing rebuild leaves the previous
// entry serving — the replan path may fail, but it may never cost the
// cache a working plan.
func TestRefreshErrorKeepsOld(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "k", 3, func() (any, int64, error) { return "good", 10, nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("optimizer exploded")
	if _, err := c.Refresh(ctx, "k", 3, func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Refresh err = %v, want %v", err, boom)
	}
	e, st, err := c.Do(ctx, "k", 3, func() (any, int64, error) {
		t.Fatal("old entry should still serve")
		return nil, 0, nil
	})
	if err != nil || st != Hit || e.Value != "good" {
		t.Fatalf("Do after failed refresh = %v %v %v", e, st, err)
	}
}

// TestRefreshPanicContained: a panicking rebuild surfaces as a typed
// *guard.PanicError, resolves the singleflight, and keeps the old
// entry.
func TestRefreshPanicContained(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "k", 3, func() (any, int64, error) { return "good", 10, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := c.Refresh(ctx, "k", 3, func() (any, int64, error) { panic("mid-replan") })
	if !guard.IsPanic(err) {
		t.Fatalf("Refresh err = %v, want contained panic", err)
	}
	if e, ok := c.Lookup("k"); !ok || e.Value != "good" {
		t.Fatalf("old entry lost after panicking refresh: %v %v", e, ok)
	}
	// The flight must be retired: the next refresh runs.
	if e, err := c.Refresh(ctx, "k", 3, func() (any, int64, error) { return "v2", 10, nil }); err != nil || e.Value != "v2" {
		t.Fatalf("refresh after contained panic = %v %v", e, err)
	}
}

// TestRefreshSingleflight: N concurrent refreshes of one key run the
// build exactly once and all share the outcome; a concurrent Do for
// the same key shares the in-flight build instead of racing it.
func TestRefreshSingleflight(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "k", 3, func() (any, int64, error) { return "v1", 10, nil }); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (any, int64, error) {
		builds.Add(1)
		<-release
		return "v2", 10, nil
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.Refresh(ctx, "k", 3, build)
			errs[i] = err
			if e != nil {
				vals[i] = e.Value
			}
		}(i)
	}
	// Release the build only once every other refresher has joined its
	// flight: one arriving after the flight finished would rightly
	// start a second build.
	deadline := time.After(5 * time.Second)
	for c.Stats().Waits < n-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d refreshers joined the flight", c.Stats().Waits)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i] != "v2" {
			t.Fatalf("refresher %d: %v %v", i, vals[i], errs[i])
		}
	}
}

// TestRefreshFault: the plancache.replan guard point, armed to error
// and to panic, fails the refresh with a typed error while the cached
// entry keeps serving.
func TestRefreshFault(t *testing.T) {
	defer guard.Clear()
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "k", 3, func() (any, int64, error) { return "good", 10, nil }); err != nil {
		t.Fatal(err)
	}
	guard.InjectError(guard.PointCacheReplan)
	if _, err := c.Refresh(ctx, "k", 3, func() (any, int64, error) {
		t.Fatal("build must not run under an injected replan fault")
		return nil, 0, nil
	}); !guard.IsInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	guard.Clear()
	guard.InjectPanic(guard.PointCacheReplan)
	if _, err := c.Refresh(ctx, "k", 3, func() (any, int64, error) { return nil, 0, nil }); !guard.IsPanic(err) {
		t.Fatalf("err = %v, want contained panic", err)
	}
	guard.Clear()
	if e, ok := c.Lookup("k"); !ok || e.Value != "good" {
		t.Fatalf("entry lost under replan faults: %v %v", e, ok)
	}
}

// TestEntriesSnapshot: Entries lists every cached entry sorted by key.
func TestEntriesSnapshot(t *testing.T) {
	c := New(1<<20, obs.NewRegistry())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(ctx, key, uint64(i), func() (any, int64, error) { return i, 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Entries()
	if len(got) != 5 {
		t.Fatalf("Entries len = %d, want 5", len(got))
	}
	for i, e := range got {
		if want := fmt.Sprintf("k%d", i); e.Key != want {
			t.Fatalf("Entries[%d].Key = %q, want %q (sorted)", i, e.Key, want)
		}
	}
}
