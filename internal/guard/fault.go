package guard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// A Point names one fault-injection site. Points sit at the same
// deterministic boundaries the budget checks use, so an injected
// fault exercises exactly the abort path a real cancellation or
// budget trip would take.
type Point string

// The registered fault points. Every guarded subsystem hits its
// points unconditionally; when no injector is armed the hit is a
// single atomic load.
const (
	// PointSimplify fires before the optimizer's simplification seed.
	PointSimplify Point = "optimizer.simplify"
	// PointRuleApply fires inside each rule application work item —
	// in the worker goroutines when memo exploration runs parallel,
	// exercising worker-level containment.
	PointRuleApply Point = "optimizer.rule.apply"
	// PointMemoWave fires at every memo exploration wave boundary.
	PointMemoWave Point = "memo.explore.wave"
	// PointMemoExtract fires on each group entry during branch-and-
	// bound extraction.
	PointMemoExtract Point = "memo.extract.group"
	// PointExecOperator fires as each operator in a guarded execution
	// finishes materializing its output.
	PointExecOperator Point = "exec.operator"
	// PointExecBatch fires at the executor's per-batch boundaries
	// inside join probe loops.
	PointExecBatch Point = "exec.join.batch"
	// PointServeAdmit fires as the query service admits a request,
	// before it is queued for a concurrency slot. An injected fault
	// here must surface as a typed client error without consuming a
	// queue slot.
	PointServeAdmit Point = "serve.admit"
	// PointCacheLookup fires on every plan-cache lookup, before the
	// shard is consulted.
	PointCacheLookup Point = "plancache.lookup"
	// PointCacheInsert fires before a freshly optimized plan is
	// inserted into the cache. A fault here fails the building request
	// but must release the singleflight so waiters and later requests
	// are not wedged.
	PointCacheInsert Point = "plancache.insert"
	// PointFeedbackRecord fires as an actual-row observation is folded
	// into the cardinality feedback store.
	PointFeedbackRecord Point = "feedback.record"
	// PointFeedbackLookup fires as the estimator consults the feedback
	// store for a corrected cardinality.
	PointFeedbackLookup Point = "feedback.lookup"
	// PointCacheReplan fires before a drift-triggered rebuild of a
	// cached plan. A fault here must leave the old entry serving —
	// never a wedged or poisoned slot.
	PointCacheReplan Point = "plancache.replan"
	// PointExecBuildSwap fires as an adaptive hash join commits to a
	// build/probe swap or a partitioned-join escalation — before the first probe,
	// so forcing a fault here exercises the transition boundary.
	PointExecBuildSwap Point = "executor.buildswap"
)

// Points returns every registered fault point, sorted.
func Points() []Point {
	pts := []Point{
		PointSimplify,
		PointRuleApply,
		PointMemoWave,
		PointMemoExtract,
		PointExecOperator,
		PointExecBatch,
		PointServeAdmit,
		PointCacheLookup,
		PointCacheInsert,
		PointFeedbackRecord,
		PointFeedbackLookup,
		PointCacheReplan,
		PointExecBuildSwap,
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// ErrInjected is the sentinel wrapped by faults injected with
// InjectError.
var ErrInjected = errors.New("guard: injected fault")

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Hook is a fault injector: return a non-nil error to make the site
// fail, or panic to exercise containment. Hooks run on whichever
// goroutine hits the point — they must be safe for concurrent calls.
type Hook func(p Point) error

// injector is the process-global registry. armed is the fast path:
// production runs never arm it, so Hit is one atomic load.
var injector struct {
	armed atomic.Bool
	mu    sync.Mutex
	hooks map[Point]Hook
}

// Hit is placed at each fault point. It returns nil unless a test has
// armed an injector for p.
func Hit(p Point) error {
	if !injector.armed.Load() {
		return nil
	}
	injector.mu.Lock()
	h := injector.hooks[p]
	injector.mu.Unlock()
	if h == nil {
		return nil
	}
	return h(p)
}

// Inject arms hook at point p (replacing any previous hook there).
// Test-only; pair with Clear.
func Inject(p Point, h Hook) {
	injector.mu.Lock()
	defer injector.mu.Unlock()
	if injector.hooks == nil {
		injector.hooks = make(map[Point]Hook)
	}
	injector.hooks[p] = h
	injector.armed.Store(true)
}

// InjectError arms p to fail every hit with a typed injected error.
func InjectError(p Point) {
	Inject(p, func(p Point) error {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	})
}

// InjectPanic arms p to panic on every hit, exercising the panic
// containment boundaries.
func InjectPanic(p Point) {
	Inject(p, func(p Point) error {
		panic(fmt.Sprintf("injected panic at %s", p))
	})
}

// Clear disarms every injector. Call it (deferred) after every test
// that injects.
func Clear() {
	injector.mu.Lock()
	defer injector.mu.Unlock()
	injector.hooks = nil
	injector.armed.Store(false)
}
