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

	"repro/internal/obs"
)

// ErrCancelled is the sentinel every cancellation error wraps: the
// run's context was cancelled or its deadline expired. Match with
// errors.Is or IsCancelled.
var ErrCancelled = errors.New("guard: cancelled")

// kind names one budgeted resource.
type kind uint8

// The budgeted resource kinds.
const (
	// kindExprs counts optimizer enumeration work: memo expressions
	// admitted.
	kindExprs kind = iota
	// kindRows counts intermediate tuples materialized by the executor.
	kindRows
	// kindBytes counts the executor's estimated intermediate bytes
	// (rows × columns × an assumed per-value width).
	kindBytes

	numKinds
)

// String returns the kind's counter label.
func (k kind) String() string {
	switch k {
	case kindExprs:
		return "exprs"
	case kindRows:
		return "rows"
	case kindBytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ErrBudget reports a tripped budget: which resource, its limit, and
// the charge that crossed it. Match with IsBudget (or errors.As).
type ErrBudget struct {
	Kind  kind
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
func (l Limits) limit(k kind) int64 {
	switch k {
	case kindExprs:
		return l.MaxExprs
	case kindRows:
		return l.MaxRows
	case kindBytes:
		return l.MaxBytes
	}
	return 0
}

// Budget is one run's resource envelope: a cancellation context plus
// cumulative charge counters against Limits. Charges and checks are
// safe for concurrent use, and every method is nil-safe, so
// unbudgeted callers pass nil and pay a pointer comparison.
//
// Trips are sticky: once a kind crosses its limit every later Charge
// and Err call keeps failing, so every boundary check after the trip
// observes the same tripped state.
type Budget struct {
	ctx    context.Context
	limits Limits
	reg    *obs.Registry

	used      [numKinds]atomic.Int64
	tripped   [numKinds]atomic.Bool
	cancelled atomic.Bool
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
	for k := kindRows; k < numKinds; k++ {
		if b.tripped[k].Load() {
			return &ErrBudget{Kind: k, Limit: b.limits.limit(k), Used: b.used[k].Load()}
		}
	}
	return nil
}

// Trips returns the names of every budget kind that has tripped, in
// kind order — the flight recorder stamps them onto query records.
// Nil (no trips) for a nil or untripped budget.
func (b *Budget) Trips() []string {
	if b == nil {
		return nil
	}
	var out []string
	for k := kindExprs; k < numKinds; k++ {
		if b.tripped[k].Load() {
			out = append(out, k.String())
		}
	}
	return out
}

// charge adds n to the kind's usage and trips when it crosses the
// configured limit. The first trip of each kind bumps
// guard.budget_trips.<kind>.
func (b *Budget) charge(k kind, n int64) error {
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
func (b *Budget) ChargeExprs(n int64) error { return b.charge(kindExprs, n) }

// ReserveBytes charges n estimated bytes for a transient resident
// structure — a join's build-side hash table, a spill partition read
// back into memory. Unlike operator outputs (which stay live as the
// parent's input and are charged permanently via ChargeOut), a
// reservation is paired with ReleaseBytes when the structure is
// dropped, so out-of-core execution is accounted by its resident peak
// rather than its cumulative traffic. Reserving past MaxBytes trips
// the byte budget exactly like ChargeOut.
func (b *Budget) ReserveBytes(n int64) error { return b.charge(kindBytes, n) }

// ReleaseBytes returns n previously reserved bytes to the byte
// budget. Each reservation must be released exactly once; releases
// are ignored when the byte budget is unlimited (charge never
// tracked them) and do not un-trip a tripped budget (trips are
// sticky by design).
func (b *Budget) ReleaseBytes(n int64) {
	if b == nil || n <= 0 || b.limits.MaxBytes <= 0 {
		return
	}
	b.used[kindBytes].Add(-n)
}

// BytesFree reports the byte budget's remaining headroom. limited is
// false when no MaxBytes cap is configured (free is then
// meaningless); a spilling join consults this to decide whether a
// build side fits in memory without risking a sticky trip.
func (b *Budget) BytesFree() (free int64, limited bool) {
	if b == nil || b.limits.MaxBytes <= 0 {
		return 0, false
	}
	free = b.limits.MaxBytes - b.used[kindBytes].Load()
	if free < 0 {
		free = 0
	}
	return free, true
}

// ChargeOut charges one operator's materialized output — rows tuples
// of width columns — against both the row and byte budgets, assuming
// valueWidthEstimate bytes per value.
func (b *Budget) ChargeOut(rows, width int) error {
	if b == nil {
		return nil
	}
	if err := b.charge(kindRows, int64(rows)); err != nil {
		return err
	}
	return b.charge(kindBytes, int64(rows)*int64(width)*valueWidthEstimate)
}

// valueWidthEstimate is the assumed in-memory footprint of one value
// for the byte budget: an interface header plus a small payload.
const valueWidthEstimate = 32
