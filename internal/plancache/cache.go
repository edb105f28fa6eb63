// Package plancache is a byte-bounded, concurrent LRU cache of
// optimized plans keyed by the canonical key (plan.Key) of a
// parameterized query template. It is the serving layer's amortizer:
// the optimizer runs once per distinct template, and every later
// request with the same shape binds its constants into the cached
// winner and goes straight to execution.
//
// Keying is deliberately syntactic. Two queries share an entry exactly
// when their parameterized lowered trees render to the same canonical
// key; semantic equivalence (same answers, different syntax) is
// undecidable in general and is not attempted. The full key string
// addresses the entry, so hash collisions cannot alias plans.
//
// Concurrency: one mutex guards the LRU and a singleflight table that
// collapses concurrent builds of a key into one optimizer run. The
// build runs outside the lock, so a slow optimization never blocks
// hits on other keys, and its completion is delivered via a deferred
// channel close — an injected error or panic in the build path
// releases all waiters rather than wedging them.
package plancache

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Status classifies the outcome of one cache access.
type Status uint8

// The access outcomes.
const (
	// Hit: the key was cached; no optimization ran.
	Hit Status = iota
	// statusMiss: this caller ran the build and (on success) inserted.
	statusMiss
	// statusShared: another caller was already building the key; this one
	// waited and shares its result without running the build.
	statusShared
)

// String returns the status label used in metrics and logs.
func (s Status) String() string {
	switch s {
	case Hit:
		return "hit"
	case statusMiss:
		return "miss"
	case statusShared:
		return "shared"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Entry is one cached plan. The value and cost are immutable after
// insertion; callers must not mutate Value (plans are immutable trees,
// so binding parameters builds new spines and never writes through).
type Entry struct {
	// Key is the full canonical template key (plan.Key of the
	// parameterized tree).
	Key string
	// Value is the cached artifact — for the query service, the
	// optimized parameterized plan plus binding metadata.
	Value any
	// Bytes is the caller-estimated footprint charged against the
	// cache's byte budget.
	Bytes int64
}

// Cache is the plan cache. The zero value is not usable; call New.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element // Value is *Entry
	lru      *list.List               // front is the most recently used
	flights  map[string]*flight

	reg          *obs.Registry
	hits         *obs.Counter
	misses       *obs.Counter
	evicts       *obs.Counter
	waits        *obs.Counter
	refreshes    *obs.Counter
	bytesGauge   *obs.Gauge
	entriesGauge *obs.Gauge
}

// flight is one in-progress build. done is closed (exactly once, via
// defer) when the build finishes, after entry/err are set.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// New builds a cache holding at most maxBytes of entries, except that
// it always retains its most recent entry even when that entry alone
// exceeds the budget, so an oversized plan still serves instead of
// thrashing. reg receives the plancache.* series and may be nil
// (obs.Default()).
func New(maxBytes int64, reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.Default()
	}
	return &Cache{
		maxBytes:     maxBytes,
		entries:      make(map[string]*list.Element),
		lru:          list.New(),
		flights:      make(map[string]*flight),
		reg:          reg,
		hits:         reg.Counter("plancache.hits"),
		misses:       reg.Counter("plancache.misses"),
		evicts:       reg.Counter("plancache.evictions"),
		waits:        reg.Counter("plancache.singleflight_waits"),
		refreshes:    reg.Counter("plancache.refreshes"),
		bytesGauge:   reg.Gauge("plancache.bytes"),
		entriesGauge: reg.Gauge("plancache.entries"),
	}
}

// Do returns the entry for key, building it at most once across
// concurrent callers. On a hit the cached entry returns immediately.
// On a miss this caller runs build (outside any lock) and inserts the
// result; concurrent callers for the same key block until the build
// finishes (or their ctx expires) and share its outcome — including
// its error, which is returned to every waiter but never cached, so
// the next request retries. The hash argument is unused: the key alone
// addresses the entry.
func (c *Cache) Do(ctx context.Context, key string, _ uint64, build func() (any, int64, error)) (*Entry, Status, error) {
	// Safely contains an injected panic at the lookup point into a
	// typed error — the fault matrix requires every cache fault to
	// surface as a classified client error, never a crash.
	if err := guard.Safely("plancache.lookup", key, c.reg, func() error {
		return guard.Hit(guard.PointCacheLookup)
	}); err != nil {
		return nil, statusMiss, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		return el.Value.(*Entry), Hit, nil
	}
	entry, shared, err := c.fly(ctx, key, c.misses, build)
	if !shared {
		return entry, statusMiss, err
	}
	if err == nil {
		c.hits.Inc()
	}
	return entry, statusShared, err
}

// Refresh rebuilds the entry for key in place — the drift-triggered
// re-planning path. Unlike Do it never returns a stale cached value:
// it runs build (under the same singleflight, so concurrent refreshes
// and misses of the key collapse into one optimizer run) and replaces
// the entry on success. The old entry keeps serving Do callers
// throughout the rebuild and survives a build error or panic
// untouched — a failed refresh can wedge neither the slot nor the
// waiters, and never leaves a poisoned entry behind. The hash argument
// is unused, as in Do.
func (c *Cache) Refresh(ctx context.Context, key string, _ uint64, build func() (any, int64, error)) (*Entry, error) {
	if err := guard.Safely("plancache.replan", key, c.reg, func() error {
		return guard.Hit(guard.PointCacheReplan)
	}); err != nil {
		return nil, err
	}
	c.mu.Lock()
	entry, _, err := c.fly(ctx, key, c.refreshes, build)
	return entry, err
}

// fly runs build for key at most once across concurrent callers. If a
// build of key is already in flight it waits for that one (or for ctx)
// and returns its outcome with shared set. Otherwise it counts the
// build on started, runs it outside the lock, and resolves the flight
// in a deferred close, so a failing build never wedges its waiters.
// c.mu must be held on entry; fly releases it.
func (c *Cache) fly(ctx context.Context, key string, started *obs.Counter, build func() (any, int64, error)) (entry *Entry, shared bool, err error) {
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.waits.Inc()
		select {
		case <-f.done:
			return f.entry, true, f.err
		case <-ctx.Done():
			return nil, true, fmt.Errorf("%w: %v", guard.ErrCancelled, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	started.Inc()
	defer func() {
		f.entry, f.err = entry, err
		close(f.done)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
	}()
	// A panic inside build is contained into a typed error
	// (guard.PanicError), so the flight always resolves with a
	// classified outcome.
	err = guard.Safely("plancache.build", key, c.reg, func() error {
		value, bytes, err := build()
		if err != nil {
			return err
		}
		if err := guard.Hit(guard.PointCacheInsert); err != nil {
			return err
		}
		entry = &Entry{Key: key, Value: value, Bytes: bytes}
		c.insert(entry)
		return nil
	})
	return entry, false, err
}

// insert puts e at the LRU front, replacing any entry under its key,
// and evicts from the back until the cache fits its byte budget. The
// new entry itself is never evicted.
func (c *Cache) insert(e *Entry) {
	c.mu.Lock()
	if el, ok := c.entries[e.Key]; ok {
		c.bytes -= el.Value.(*Entry).Bytes
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.entries[e.Key] = c.lru.PushFront(e)
	}
	c.bytes += e.Bytes
	evicted := 0
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		victim := c.lru.Remove(c.lru.Back()).(*Entry)
		delete(c.entries, victim.Key)
		c.bytes -= victim.Bytes
		evicted++
	}
	bytes, n := c.bytes, len(c.entries)
	c.mu.Unlock()
	c.evicts.Add(int64(evicted))
	c.bytesGauge.Set(bytes)
	c.entriesGauge.Set(int64(n))
}

// Entries snapshots every cached entry, sorted by key — the
// /debug/cache detail listing. The returned slice is fresh but the
// *Entry values are the live (immutable) cache entries.
func (c *Cache) Entries() []*Entry {
	c.mu.Lock()
	out := make([]*Entry, 0, len(c.entries))
	for _, el := range c.entries {
		out = append(out, el.Value.(*Entry))
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Stats is a point-in-time summary for /debug/cache.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evicted   int64 `json:"evictions"`
	Waits     int64 `json:"singleflight_waits"`
	Refreshes int64 `json:"refreshes"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return Stats{
		Entries:   entries,
		Bytes:     bytes,
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evicted:   c.evicts.Value(),
		Waits:     c.waits.Value(),
		Refreshes: c.refreshes.Value(),
	}
}
