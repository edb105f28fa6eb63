package obs

import (
	"context"
	"runtime/pprof"
)

// WithPhase runs f with pprof labels engine=<engine>, phase=<phase>
// attached to the calling goroutine. Goroutines started inside f —
// the memo-apply worker pool spawns within its phase — inherit the labels, so a CPU
// profile of the process attributes samples to optimizer/executor
// phases instead of one undifferentiated call tree. The previous
// label set is restored when f returns; nesting composes (the inner
// labels win for the inner region).
func WithPhase(ctx context.Context, engine, phase string, f func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("engine", engine, "phase", phase), func(context.Context) { f() })
}
