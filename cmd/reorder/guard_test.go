package main

import (
	"strings"
	"testing"
)

const guardTestQuery = "select * from agg94, detail95 where agg94.supkey = detail95.supkey"

// TestRunTimeoutExitsThree: a run whose wall-clock budget is already
// exhausted must abort with the resource-governance exit code, not a
// generic failure.
func TestRunTimeoutExitsThree(t *testing.T) {
	code, _, stderr := runCapture(t, "-query", guardTestQuery, "-timeout", "1ns")
	if code != exitGuard {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitGuard, stderr)
	}
	if !strings.Contains(stderr, "cancelled") {
		t.Errorf("stderr should name the cancellation: %s", stderr)
	}
}

// TestRunMaxRowsExitsThree: tripping the intermediate-row cap during
// -rows execution is a budget abort (exit 3), distinct from parse
// errors (2) and other runtime failures (1).
func TestRunMaxRowsExitsThree(t *testing.T) {
	code, _, stderr := runCapture(t, "-query", guardTestQuery, "-rows", "-max-rows", "10")
	if code != exitGuard {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitGuard, stderr)
	}
	if !strings.Contains(stderr, "budget") {
		t.Errorf("stderr should name the budget trip: %s", stderr)
	}
}

// spillTestQuery joins agg94 to detail95 on both keys and keeps a few
// rows: detail95's build side cannot fit a 200 000-byte budget, but
// the join's output can.
const spillTestQuery = "select agg94.supkey, detail95.qty from agg94, detail95 " +
	"where agg94.supkey = detail95.supkey and agg94.partkey = detail95.partkey and agg94.qty = 1"

// TestRunMaxBytesSpillsOrTrips: byte pressure means the same in every
// mode. A join whose build side cannot fit -max-bytes is joined
// partition by partition and the run completes, under EXPLAIN ANALYZE
// and under -rows alike; an overrun that partitioning cannot avoid (a
// join output larger than the budget) is the typed budget abort, exit
// 3.
func TestRunMaxBytesSpillsOrTrips(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-demo", "supplier", "-stats", "-max-bytes", "200000")
	if code != exitOK {
		t.Fatalf("-stats: exit code = %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	for _, want := range []string{"exec.spill.partitions", "spill_partitions="} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-stats stdout missing %q", want)
		}
	}
	if code, _, stderr = runCapture(t, "-query", spillTestQuery, "-rows", "-max-bytes", "200000"); code != exitOK {
		t.Fatalf("-rows over a partitionable join: exit code = %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	code, _, stderr = runCapture(t, "-query", guardTestQuery, "-rows", "-max-bytes", "200000")
	if code != exitGuard {
		t.Fatalf("-rows: exit code = %d, want %d (stderr: %s)", code, exitGuard, stderr)
	}
	if !strings.Contains(stderr, "bytes budget") {
		t.Errorf("-rows stderr should name the bytes trip: %s", stderr)
	}
}

// TestRunMaxExprsDegradesExitZero: an exprs cap does not fail the
// run — the optimizer degrades to a best-effort plan and says so. The
// query joins three relations: the two-relation guardTestQuery admits
// a single expression past its seeds (the commuted join), which a
// budget of one covers in full.
func TestRunMaxExprsDegradesExitZero(t *testing.T) {
	const q = "select * from agg94, detail95, sup_detail " +
		"where agg94.supkey = detail95.supkey and agg94.supkey = sup_detail.supkey"
	code, stdout, stderr := runCapture(t, "-query", q, "-max-exprs", "1")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	if !strings.Contains(stdout, "degraded:") {
		t.Errorf("stdout should carry the degradation tag:\n%s", stdout)
	}
}

// TestRunParseErrorExitsTwo: malformed SQL is a usage error.
func TestRunParseErrorExitsTwo(t *testing.T) {
	code, _, _ := runCapture(t, "-query", "select from where")
	if code != exitUsage {
		t.Fatalf("exit code = %d, want %d", code, exitUsage)
	}
}

// TestRunUnlimitedBudgetStillWorks: guard flags at their zero values
// must not change a normal run's outcome.
func TestRunUnlimitedBudgetStillWorks(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-query", guardTestQuery, "-timeout", "0", "-max-exprs", "0", "-max-rows", "0")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitOK, stderr)
	}
	if strings.Contains(stdout, "degraded:") {
		t.Errorf("unlimited run must not degrade:\n%s", stdout)
	}
}
