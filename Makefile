GO ?= go

.PHONY: all fmt build vet test race fuzz-smoke bench-smoke bench bench-all check clean

all: vet build test

# The full pre-merge gauntlet: formatting and static checks, build,
# the test suite, the same suite under the race detector (which covers
# the fault-injection, partitioned-join, serving, feedback and
# observability tests), ten seconds each of fuzzing the SQL front end,
# the dense join index, the append-time column kind, the columnar sort,
# the columnar kernels' value semantics and the reference join, and the
# bench module's smoke run (every workload played once; a wrong answer
# fails it).
check: fmt vet build test race fuzz-smoke bench-smoke

fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full suite under the race detector (requests share base-table columns
# and join indexes while a table is appended to, obs and the feedback
# store are updated concurrently, and the fault-injection matrix arms
# every guard point).
# The allocation-ceiling tests run here too: the race detector adds a
# few allocations, which their headroom absorbs, and the handler test
# skips its byte ceilings, which it moves more.
race:
	$(GO) test -race -count=1 ./...

# The performance record (~4 min): the bench module self-hosts the
# query service and plays every BENCHMARK.json workload through it,
# printing the end-to-end and per-layer metrics. Performance claims are
# checked here and nowhere else.
bench:
	$(GO) run -C bench .

# Ten seconds of coverage-guided fuzzing of the SQL front end
# (FuzzParse): no panics, parameterization commutes with lowering, and
# the token shape the service memoizes templates by is sound — swapping
# a masked literal keeps the shape, the template and the slot map, and
# the slot map reads Parameterize's parameters off the tokens. Then ten
# seconds of the dense join index (FuzzDenseIndex): over any int64
# column and NULL mask the dense decision neither panics nor overflows,
# and every key's run is the ascending list of the rows holding it.
# Then ten seconds of the append-time column kind (FuzzColumnAppend):
# over any sequence of NULL, INT, FLOAT (NaN, ±0), STRING and BOOL
# values, a column built by relation.Builder, AppendAll or FromValues
# has the physical kind, null bitmap and values of a two-pass sniff, and
# a snapshot taken half way keeps its rows.
# Then ten seconds of the columnar sort (FuzzColumnarSort): over any
# column kinds, NULLs, NaNs, keys, directions and limit it returns
# plan.SortRows's rows in SortRows's order. Then ten seconds of the
# kernels' value semantics (FuzzKernelSemantics): over any column
# kinds, NULLs, NaNs, ±0 and ints beyond 2^53, every θ and constant,
# the columnar selections, joins (each lookup), grouping, DISTINCT,
# MIN/MAX and sorts answer as plan.Eval does. Then ten seconds of the
# reference join (FuzzTupleJoin): over any two relations of edge values
# and equality, mixed and non-equality predicates, every join kind of
# package algebra returns its nested-loop definition's rows in order.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz FuzzDenseIndex -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz FuzzColumnAppend -fuzztime 10s ./internal/batch
	$(GO) test -run '^$$' -fuzz FuzzColumnarSort -fuzztime 10s ./internal/executor
	$(GO) test -run '^$$' -fuzz FuzzKernelSemantics -fuzztime 10s ./internal/executor
	$(GO) test -run '^$$' -fuzz FuzzTupleJoin -fuzztime 10s ./internal/algebra

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
