GO ?= go

.PHONY: all fmt build vet test race race-par race-vec race-adapt spill-smoke faults smoke obs serve-smoke fuzz-smoke bench-smoke bench bench-all check clean

all: vet build test

# The full pre-merge gauntlet: formatting and static checks, build,
# the tier-1 test suite, the fault-injection suite under the race
# detector, the observability smoke, the low-budget spill smoke, the
# query-service smoke, the parallel-optimizer suite, the
# adaptive/feedback suite, the columnar serving-engine suite,
# ten seconds of fuzzing the SQL front end, and the bench module's smoke
# run (every workload played once; a wrong answer fails it).
check: fmt vet build test faults obs spill-smoke serve-smoke fuzz-smoke race-par race-adapt race-vec bench-smoke

fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (requests share base-table images
# and join indexes, obs is updated concurrently, and memo exploration
# runs a worker pool).
race:
	$(GO) test -race ./...

# Focused race run for the parallel optimizer paths: the fingerprint
# cache, the shared cost session, the memo's equality with the
# saturate-and-rank test oracle, its worker-determinism property suite,
# and the memo package's own tests (identical memo at any worker count,
# capped or not; shape identity; closure membership; the soundness of
# the ScopeChild rules' operator-kind patterns and the pinned cold_plan
# memos). Part of make check. The optimizer's allocation ceilings
# (TestExploreColdAllocCeiling) stay out of it: the race detector
# changes allocation counts.
race-par:
	$(GO) test -race -run 'TestFingerprintConcurrent|TestSessionConcurrent|TestOptimizeWorkers|TestMemo|TestWorkersIdenticalMemo|TestShapeIdentity|TestSplitTable|TestRulePanicLabelled|TestHandlerConcurrentScrape|TestRecorderConcurrent|TestObserverScrapeWhileExecuting' \
		./internal/plan/ ./internal/stats/ ./internal/optimizer/ ./internal/memo/ ./internal/obs/ ./internal/obs/flight/ .

# Focused race run for the columnar engine — the one the service
# executes on — and the spill path: the Run ≡ RunGuarded ≡
# RunInstrumentedAdaptive ≡ bare-walker property suites across batch
# sizes, the forced-collision suite, the shared per-relation image
# (built once, dropped on Append, never written through) and its join
# indexes, hashed and dense (built once per key set under concurrency,
# shared by aliases, dropped with the image), the dense lookups against
# the hashed ones (identical selection vectors and group order), late materialization against plan.Eval (stacked outer
# joins, swapped and spilled variants), the order-independence of the
# serving shapes, native build/probe swap, sort-order and
# every-node-annotated pins, the presorted check against plan.SortRows,
# the top-K sort and the root ORDER BY rule (one enforcer sort over the
# order-free winner), the columnar batch kernels, the grace spill
# equivalence / determinism / recursion tests, the same properties
# observed through Service.Query, and statistics read from the image
# (the typed pass equal to the tuple walk; each table analyzed on first
# use, once under concurrency, never by NewService). The analysis
# allocation ceiling (TestAnalyzeAllocCeiling) stays out of it: the race
# detector changes allocation counts.
race-vec:
	$(GO) test -race -run 'TestVectorized|TestExecutorSpill|TestBatch|TestVec|TestDense|TestRunMatchesReference|TestPresorted|TestAdapt|TestLateMaterialization|TestExecServingOrderIndependent|TestColliding|TestHashJoinCollision|TestGroupByCollisions|TestDistinctAggCollisions|TestGenSelMGOJCollisions' \
		./internal/executor/ ./internal/batch/
	$(GO) test -race -run 'TestImage' ./internal/relation/
	$(GO) test -race -run 'TestSortRowsTopK' ./internal/plan/
	$(GO) test -race -run 'TestOrder' ./internal/optimizer/
	$(GO) test -race -run 'TestAnalyzeMatchesTupleWalk|TestAnalyzeOnFirstUse' ./internal/stats/
	$(GO) test -race -run 'TestServiceColumnar|TestJoinIndex' .

# Focused race run for the feedback/adaptive layer: the feedback
# store's decay/clamp/bounds properties and concurrent hammering, the
# plan cache's singleflight refresh, the mid-query adaptive join pins
# (build/probe swap ≡ static, spill escalation), and the service-level
# drift → replan convergence loop.
race-adapt:
	$(GO) test -race -count=1 ./internal/stats/feedback/
	$(GO) test -race -run 'TestRefresh|TestEntriesSnapshot' ./internal/plancache/
	$(GO) test -race -run 'TestAdapt' ./internal/executor/
	$(GO) test -race -run 'TestServiceFeedback|TestServiceCacheDebug' .

# Low-MaxBytes spill smoke: with Adapt.Spill the columnar join must
# escape to the disk-backed grace join and complete — with spill
# counters moving — under a byte budget the in-memory build cannot fit,
# and trip typed without it.
spill-smoke:
	$(GO) test -run 'TestVectorizedSpills|TestExecutorSpillCompletesWhereInMemoryTrips' \
		./internal/executor/

# Resource-governance and fault-injection suite under the race
# detector: every registered guard point armed to error and to panic
# across optimizer arms (plain memo, root ORDER BY, feedback store) and
# executor entry points;
# cancellation and budget-trip properties; the untripped-budget
# determinism gates; and the cmd/reorder exit-code contract.
faults:
	$(GO) test -race -run 'TestOptimizerFault|TestOptimizerCancelled|TestOptimizerBudget|TestExecutor|TestBudget|TestSafely|TestRecover|TestValidate|TestRun|TestAdaptFault' \
		./internal/guard/ ./internal/optimizer/ ./internal/executor/ ./internal/plan/ ./cmd/reorder/
	$(GO) test -race -run 'TestFault|TestBuildPanicContained|TestBuildErrorNotCached|TestServiceFault|TestRefreshFault|TestFeedbackFaults|TestServiceFeedbackFault' \
		./internal/plancache/ ./internal/stats/feedback/ .

# Quick observability smoke: the concurrent registry/tracer tests.
smoke:
	$(GO) test -run TestObs -race ./internal/obs/...

# Observability v2 smoke under the race detector: the full obs and
# flight-recorder suites (exposition writer + strict parser, label
# vectors, diff/merge, handler, ring bounds), the root observer
# (flight records, q-error accounting, scrape-while-executing) and
# the cmd/reorder -metrics-addr endpoint test.
obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'TestExplainAnalyzeObserved|TestObserver|TestAnalyzeJSONQuantilesAndSpans' .
	$(GO) test -race -run 'TestRunMetricsAddr' ./cmd/reorder/

# The performance record (~4 min): the bench module self-hosts the
# query service and plays every BENCHMARK.json workload through it,
# printing the end-to-end and per-layer metrics. Performance claims are
# checked here and nowhere else.
bench:
	$(GO) run -C bench .

# Query-service smoke under the race detector: the plan cache
# (singleflight, eviction, fault containment), the serving layer
# (one optimization per template, typed shed/deadline/budget errors,
# admission faults), the HTTP surface — every TestHandler… case: typed
# 429s under a burst, goroutine drain, /metrics scrape, the column
# encoder's bytes against encoding/json's, the typed 500 for a result
# JSON cannot represent, and the per-request allocation ceiling of the
# hit_scan shapes — and the daemon boot/drain cycle.
serve-smoke:
	$(GO) test -race -count=1 ./internal/plancache/ ./cmd/reorderd/
	$(GO) test -race -count=1 -run 'TestService|TestHandler' .

# Ten seconds of coverage-guided fuzzing of the SQL front end
# (FuzzParse): no panics, parameterization commutes with lowering, and
# the token shape the service memoizes templates by is sound — swapping
# a masked literal keeps the shape, the template and the slot map, and
# the slot map reads Parameterize's parameters off the tokens. Then ten
# seconds of the dense join index (FuzzDenseIndex): over any int64
# column and NULL mask the dense decision neither panics nor overflows,
# and every key's run is the ascending list of the rows holding it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzDenseIndex -fuzztime 10s ./internal/batch

# The bench module (bench/, its own go.mod) is outside ./..., so a
# signature change that breaks it passes go build ./... and go test
# ./...: build, vet, test and smoke-run it here. The smoke run plays
# every workload through both passes for a fraction of a second and
# exits non-zero on a wrong answer.
bench-smoke:
	$(GO) run -C bench . -smoke
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full go test benchmark sweep (root experiment benches included).
bench-all:
	$(GO) test -bench=. -benchmem ./...

clean:
	$(GO) clean ./...
