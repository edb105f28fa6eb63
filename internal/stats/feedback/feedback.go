// Package feedback closes the loop from execution back to the cost
// model: a race-safe, bounded store of estimated→actual row
// corrections keyed by string. The instrumented executor records what
// each operator actually produced; a stats.Session with the store
// attached prefers the corrected cardinality over the static model,
// so re-optimization of a drifted plan ranks join orders by observed
// truth instead of the estimate that misled it.
//
// A key names a memo group: the plan.Key of the group's *template*
// representative (parameter slots, not bound constants), which
// optimizer.Result.Estimates reports for every node of a plan. What
// one execution learns therefore transfers to every member of the
// group — whichever bracketing wins next — and to every future
// parameter binding. (stats.Session's whole-tree Rows and PlanCost
// look a subtree up under its own plan.Key.) Observations fold in
// under exponential decay, so a
// workload shift re-learns instead of averaging forever, and an
// outlier clamp bounds how far a single wild run can drag the
// correction.
package feedback

import (
	"sync"

	"repro/internal/guard"
	"repro/internal/obs"
)

// Options configure a Store.
type Options struct {
	// Obs, when non-nil, receives the store's counters
	// (feedback.store.*).
	Obs *obs.Registry
}

const (
	// maxEntries caps the number of distinct keys retained; beyond it
	// the oldest-inserted key is evicted.
	maxEntries = 4096
	// decay is the EWMA weight of the newest observation in (0, 1]:
	// 1 keeps only the latest actual, small values average over a long
	// history.
	decay = 0.5
	// maxRatio clamps each observation's actual/estimated ratio into
	// [1/maxRatio, maxRatio] before folding, bounding the damage of a
	// single outlier run.
	maxRatio = 1e6
)

// Store is the bounded correction map. All methods are safe for
// concurrent use; Lookup takes a read lock so the hot path (every
// costed subtree of every re-optimization) scales across sessions.
type Store struct {
	// maxEntries, decay and maxRatio are the package constants; the
	// store's tests vary them.
	maxEntries int
	decay      float64
	maxRatio   float64

	mu      sync.RWMutex
	entries map[string]float64 // key → EWMA of clamped actual row counts
	order   []string           // insertion order, for bounded eviction

	hits      *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

// New builds a Store.
func New(opts Options) *Store {
	s := &Store{
		maxEntries: maxEntries,
		decay:      decay,
		maxRatio:   maxRatio,
		entries:    make(map[string]float64),
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.hits = reg.Counter("feedback.store.lookup_hits")
	s.evictions = reg.Counter("feedback.store.evictions")
	s.size = reg.Gauge("feedback.store.entries")
	return s
}

// Record folds one observation — the subtree keyed by key was
// estimated at est rows and actually produced actual — into the
// store. The observation is clamped to within maxRatio of the
// estimate, then EWMA-folded into any prior correction for the key.
func (s *Store) Record(key string, est, actual float64) error {
	if err := guard.Hit(guard.PointFeedbackRecord); err != nil {
		return err
	}
	obs := clamp(est, actual, s.maxRatio)
	s.mu.Lock()
	defer s.mu.Unlock()
	if rows, ok := s.entries[key]; ok {
		s.entries[key] = s.decay*obs + (1-s.decay)*rows
	} else {
		for len(s.entries) >= s.maxEntries && len(s.order) > 0 {
			victim := s.order[0]
			s.order = s.order[1:]
			if _, live := s.entries[victim]; live {
				delete(s.entries, victim)
				s.evictions.Inc()
			}
		}
		s.entries[key] = obs
		s.order = append(s.order, key)
	}
	s.size.Set(int64(len(s.entries)))
	return nil
}

// Lookup returns the corrected cardinality for key, if one has been
// learned. The returned rows are never negative.
func (s *Store) Lookup(key string) (rows float64, ok bool, err error) {
	if err := guard.Hit(guard.PointFeedbackLookup); err != nil {
		return 0, false, err
	}
	s.mu.RLock()
	rows, live := s.entries[key]
	s.mu.RUnlock()
	if !live {
		return 0, false, nil
	}
	s.hits.Inc()
	if rows < 0 {
		rows = 0
	}
	return rows, true, nil
}

// clamp bounds actual to within maxRatio of est in either direction.
// A zero or negative estimate cannot anchor a ratio, so the actual is
// taken as-is (never negative).
func clamp(est, actual, maxRatio float64) float64 {
	if actual < 0 {
		actual = 0
	}
	if est <= 0 {
		return actual
	}
	if hi := est * maxRatio; actual > hi {
		return hi
	}
	if lo := est / maxRatio; actual < lo {
		return lo
	}
	return actual
}
