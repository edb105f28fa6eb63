package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestBenchQueryClosureSizes pins the workload sizes the saturation
// benchmarks rely on: Q5's closure is exhausted below the cap,
// ChainQuery(7)'s exceeds it.
func TestBenchQueryClosureSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("closure enumeration is slow")
	}
	q5 := core.Saturate(Q5(), core.SaturateOptions{MaxPlans: 10000})
	if len(q5) != 2752 {
		t.Errorf("Q5 closure has %d members, want 2752", len(q5))
	}
	chain := core.Saturate(ChainQuery(7), core.SaturateOptions{MaxPlans: 10000})
	if len(chain) != 10000 {
		t.Errorf("ChainQuery(7) should hit the 10000-plan cap, got %d", len(chain))
	}
	q6 := core.Saturate(Q6(), core.SaturateOptions{MaxPlans: 10000})
	if len(q6) == 0 || len(q6) >= 10000 {
		t.Errorf("Q6 closure size %d out of expected range", len(q6))
	}
}
