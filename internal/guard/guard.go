// Package guard is the engine's resource-governance layer: budgets
// (wall-clock deadlines via context.Context, enumeration-expression,
// intermediate-row and estimated-byte caps), the typed errors every
// long-running subsystem surfaces when a limit is hit, panic
// containment that converts a crashing rule application or operator
// into a diagnostic error, and a deterministic fault-injection
// harness the robustness test suites drive.
//
// Budgets are checked at cheap, deterministic points — memo
// explore/extract loops, executor batch and partition boundaries — so a guarded run that never trips a limit
// produces bit-identical results to an unguarded one. All methods are
// nil-safe: a nil *Budget never cancels, never trips, and costs one
// pointer comparison per check, which keeps the guarded paths within
// noise of the unguarded ones.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrCancelled is the sentinel every cancellation error wraps: the
// run's context was cancelled or its deadline expired. Match with
// errors.Is or IsCancelled.
var ErrCancelled = errors.New("guard: cancelled")

// Kind names one budgeted resource.
type Kind uint8

// The budgeted resource kinds.
const (
	// Exprs counts optimizer enumeration work: memo expressions
	// admitted.
	Exprs Kind = iota
	// Rows counts intermediate tuples materialized by the executor.
	Rows
	// Bytes counts the executor's estimated intermediate bytes
	// (rows × columns × an assumed per-value width).
	Bytes

	numKinds
)

// String returns the kind's counter label.
func (k Kind) String() string {
	switch k {
	case Exprs:
		return "exprs"
	case Rows:
		return "rows"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrBudget reports a tripped budget: which resource, its limit, and
// the charge that crossed it. Match with IsBudget (or errors.As).
type ErrBudget struct {
	Kind  Kind
	Limit int64
	Used  int64
}

// Error implements error.
func (e *ErrBudget) Error() string {
	return fmt.Sprintf("guard: %s budget exceeded (%d > limit %d)", e.Kind, e.Used, e.Limit)
}

// PanicError is a contained panic: a rule application, estimator or
// physical operator panicked and the package-boundary recovery
// converted it into this diagnostic error instead of taking the
// process down. Phase names the pipeline stage ("simplify", "explore",
// "cost", "execute", …) and PlanKey is the fingerprint (plan.Key) of
// the plan being processed, so the failure is reproducible.
type PanicError struct {
	Phase   string
	PlanKey string
	Value   any
	Stack   []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("guard: recovered panic in %s (plan %s): %v", e.Phase, e.PlanKey, e.Value)
}

// IsCancelled reports whether err stems from context cancellation or
// deadline expiry.
func IsCancelled(err error) bool { return errors.Is(err, ErrCancelled) }

// IsBudget reports whether err is (or wraps) a tripped budget.
func IsBudget(err error) bool {
	var be *ErrBudget
	return errors.As(err, &be)
}

// IsPanic reports whether err is (or wraps) a contained panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// IsGuard reports whether err is any of the guard layer's typed
// failures: cancellation, budget trip, contained panic, or an
// injected test fault.
func IsGuard(err error) bool {
	return IsCancelled(err) || IsBudget(err) || IsPanic(err) || IsInjected(err)
}

// Limits bound one run. Zero values mean unlimited.
type Limits struct {
	// MaxExprs caps enumeration expressions (memo expressions
	// admitted). Tripping it degrades the optimizer gracefully instead
	// of erroring.
	MaxExprs int64
	// MaxRows caps the executor's cumulative intermediate rows.
	MaxRows int64
	// MaxBytes caps the executor's estimated intermediate bytes.
	MaxBytes int64
}

// limit returns the configured cap for a kind (0 = unlimited).
func (l Limits) limit(k Kind) int64 {
	switch k {
	case Exprs:
		return l.MaxExprs
	case Rows:
		return l.MaxRows
	case Bytes:
		return l.MaxBytes
	}
	return 0
}

// Budget is one run's resource envelope: a cancellation context plus
// cumulative charge counters against Limits. Charges and checks are
// safe for concurrent use (executor workers charge the same budget),
// and every method is nil-safe, so unbudgeted callers pass nil and
// pay a pointer comparison.
//
// Trips are sticky: once a kind crosses its limit every later Charge
// and Err call keeps failing, which is what lets worker pools drain
// deterministically — each worker observes the same tripped state at
// its next boundary check.
type Budget struct {
	ctx    context.Context
	limits Limits
	reg    *obs.Registry

	used      [numKinds]atomic.Int64
	tripped   [numKinds]atomic.Bool
	cancelled atomic.Bool
	queuedNs  atomic.Int64
}

// New builds a budget. ctx may be nil (never cancelled); reg receives
// the guard.cancelled and guard.budget_trips.<kind> counters and may
// be nil (obs.Default()).
func New(ctx context.Context, l Limits, reg *obs.Registry) *Budget {
	return &Budget{ctx: ctx, limits: l, reg: reg}
}

// Context returns the budget's context (context.Background() for a
// nil budget or nil context).
func (b *Budget) Context() context.Context {
	if b == nil || b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Registry returns the registry this run's counters belong in: the one
// the budget was built with, or obs.Default() for a nil budget or a
// budget built without one. The executor counts through it, so a
// serving layer that gives each request a registry sees what its own
// request did.
func (b *Budget) Registry() *obs.Registry {
	if b == nil || b.reg == nil {
		return obs.Default()
	}
	return b.reg
}

// Cancelled returns a typed cancellation error when the budget's
// context is done, nil otherwise. This is the check long loops place
// at deterministic boundaries; budget trips are reported separately
// (Charge*, Err) so enumeration callers can degrade on a trip while
// still aborting on cancellation.
func (b *Budget) Cancelled() error {
	if b == nil || b.ctx == nil {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		if b.cancelled.CompareAndSwap(false, true) {
			b.reg.Counter("guard.cancelled").Inc()
		}
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return nil
}

// Err is the boundary check for paths that cannot degrade (the
// executor): cancellation first, then any already-tripped execution
// budget kind. A tripped Exprs budget is deliberately not reported —
// it is the optimizer's degradable condition, and the same budget
// legitimately flows into executing the degraded plan afterwards
// (ExplainAnalyze optimizes and executes under one envelope).
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if err := b.Cancelled(); err != nil {
		return err
	}
	for k := Rows; k < numKinds; k++ {
		if b.tripped[k].Load() {
			return &ErrBudget{Kind: k, Limit: b.limits.limit(k), Used: b.used[k].Load()}
		}
	}
	return nil
}

// Tripped reports whether the kind's budget has been exceeded.
func (b *Budget) Tripped(k Kind) bool { return b != nil && b.tripped[k].Load() }

// Trips returns the names of every budget kind that has tripped, in
// kind order — the flight recorder stamps them onto query records.
// Nil (no trips) for a nil or untripped budget.
func (b *Budget) Trips() []string {
	if b == nil {
		return nil
	}
	var out []string
	for k := Exprs; k < numKinds; k++ {
		if b.tripped[k].Load() {
			out = append(out, k.String())
		}
	}
	return out
}

// Used returns the cumulative charge against a kind.
func (b *Budget) Used(k Kind) int64 {
	if b == nil {
		return 0
	}
	return b.used[k].Load()
}

// charge adds n to the kind's usage and trips when it crosses the
// configured limit. The first trip of each kind bumps
// guard.budget_trips.<kind>.
func (b *Budget) charge(k Kind, n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	limit := b.limits.limit(k)
	if limit <= 0 {
		return nil
	}
	used := b.used[k].Add(n)
	if used <= limit {
		return nil
	}
	if b.tripped[k].CompareAndSwap(false, true) {
		b.reg.Counter("guard.budget_trips." + k.String()).Inc()
	}
	return &ErrBudget{Kind: k, Limit: limit, Used: used}
}

// ChargeExprs charges n enumeration expressions.
func (b *Budget) ChargeExprs(n int64) error { return b.charge(Exprs, n) }

// ChargeRows charges n intermediate rows.
func (b *Budget) ChargeRows(n int64) error { return b.charge(Rows, n) }

// ChargeBytes charges n estimated intermediate bytes.
func (b *Budget) ChargeBytes(n int64) error { return b.charge(Bytes, n) }

// ReserveBytes charges n estimated bytes for a transient resident
// structure — a join's build-side hash table, a spill partition read
// back into memory. Unlike operator outputs (which stay live as the
// parent's input and are charged permanently via ChargeOut), a
// reservation is paired with ReleaseBytes when the structure is
// dropped, so out-of-core execution is accounted by its resident peak
// rather than its cumulative traffic. Reserving past MaxBytes trips
// the byte budget exactly like ChargeBytes.
func (b *Budget) ReserveBytes(n int64) error { return b.charge(Bytes, n) }

// ReleaseBytes returns n previously reserved bytes to the byte
// budget. Each reservation must be released exactly once; releases
// are ignored when the byte budget is unlimited (charge never
// tracked them) and do not un-trip a tripped budget (trips are
// sticky by design).
func (b *Budget) ReleaseBytes(n int64) {
	if b == nil || n <= 0 || b.limits.MaxBytes <= 0 {
		return
	}
	b.used[Bytes].Add(-n)
}

// BytesFree reports the byte budget's remaining headroom. limited is
// false when no MaxBytes cap is configured (free is then
// meaningless); a spilling join consults this to decide whether a
// build side fits in memory without risking a sticky trip.
func (b *Budget) BytesFree() (free int64, limited bool) {
	if b == nil || b.limits.MaxBytes <= 0 {
		return 0, false
	}
	free = b.limits.MaxBytes - b.used[Bytes].Load()
	if free < 0 {
		free = 0
	}
	return free, true
}

// AddQueueWait records time this run spent admitted-but-queued by a
// serving layer's admission controller, before any optimizer or
// executor work started. The wait is surfaced three ways so shed
// decisions are observable: QueueWait (the service flight record's
// "queued" phase), the guard.queue_wait_milli histogram on the budget's
// registry, and whatever queue-depth gauges the admitting layer keeps.
func (b *Budget) AddQueueWait(d time.Duration) {
	if b == nil || d <= 0 {
		return
	}
	b.queuedNs.Add(int64(d))
	b.reg.Histogram("guard.queue_wait_milli").Observe(d.Milliseconds())
}

// QueueWait returns the cumulative admission-queue wait recorded for
// this run (zero for a nil budget).
func (b *Budget) QueueWait() time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.queuedNs.Load())
}

// ChargeOut charges one operator's materialized output — rows tuples
// of width columns — against both the row and byte budgets, assuming
// valueWidthEstimate bytes per value.
func (b *Budget) ChargeOut(rows, width int) error {
	if b == nil {
		return nil
	}
	if err := b.ChargeRows(int64(rows)); err != nil {
		return err
	}
	return b.ChargeBytes(int64(rows) * int64(width) * valueWidthEstimate)
}

// valueWidthEstimate is the assumed in-memory footprint of one value
// for the byte budget: an interface header plus a small payload.
const valueWidthEstimate = 32
