package guard

import (
	"fmt"
	"runtime/debug"

	"repro/internal/obs"
)

// RecoverAs is the package-boundary panic container: deferred at the
// top of optimizer.Optimize and the executor's entry point (Exec), it
// converts a panic into a *PanicError stored in *errp, carrying the
// phase the pipeline was in (read through phase at recovery time, so
// the boundary reports the innermost stage reached) and the rendering
// of plan, the plan being processed (a plan.Node renders as its
// fingerprint; nil leaves PlanKey empty). Like RecoverItem's label,
// the rendering is built only on a panic. Recovered panics bump
// guard.recovered_panics.
//
// Deliberate nil-map/nil-pointer crashes in worker goroutines are NOT
// visible to a boundary defer — worker pools additionally wrap each
// work item with Safely.
func RecoverAs(errp *error, phase *string, plan fmt.Stringer, reg *obs.Registry) {
	r := recover()
	if r == nil {
		return
	}
	ph, key := "", ""
	if phase != nil {
		ph = *phase
	}
	if plan != nil {
		key = plan.String()
	}
	reg.Counter("guard.recovered_panics").Inc()
	*errp = &PanicError{Phase: ph, PlanKey: key, Value: r, Stack: debug.Stack()}
}

// Safely runs one work item with panic containment, for worker pools
// whose goroutines a boundary defer cannot cover: a panic in f comes
// back as a *PanicError tagged with the item's phase and plan
// fingerprint. reg may be nil (obs.Default()).
func Safely(phase, planKey string, reg *obs.Registry, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			reg.Counter("guard.recovered_panics").Inc()
			err = &PanicError{Phase: phase, PlanKey: planKey, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// RecoverItem is the per-item form of RecoverAs for worker pools whose
// items are cheap and many: deferred directly by the function that
// processes one item, it reports a panic as a *PanicError labelled
// with item's rendering — which is built only then, so an item that
// does not panic never pays for its label.
func RecoverItem(errp *error, phase string, item fmt.Stringer, reg *obs.Registry) {
	r := recover()
	if r == nil {
		return
	}
	reg.Counter("guard.recovered_panics").Inc()
	*errp = &PanicError{Phase: phase, PlanKey: item.String(), Value: r, Stack: debug.Stack()}
}
