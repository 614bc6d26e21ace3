# Verification gate for the MikPoly reproduction. `make verify` is the
# one-command CI check: formatting, static analysis, full build, and the
# complete test suite under the race detector. `make perf` runs every mikbench
# suite against the committed baseline (the CI gate job).

GO ?= go

.PHONY: verify fmtcheck fmt vet build test race deadpkg budget fuzz bench perf baseline clean

verify: fmtcheck vet build deadpkg budget race

# Formatting drift fails the build: gofmt -l must print nothing.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every internal package must be reached by a command, an example, the
# benchmark harness or the root package; one that only tests import fails the
# check, named.
deadpkg:
	@reached="$$($(GO) list -deps ./cmd/... ./examples/... ./benchmarks/... .)" || exit 1; \
	all="$$($(GO) list ./internal/...)" || exit 1; \
	dead="$$(for p in $$all; do echo "$$reached" | grep -qxF "$$p" || echo "$$p"; done)"; \
	if [ -n "$$dead" ]; then echo "packages no command, example, benchmark or root package reaches:"; \
		echo "$$dead"; exit 1; fi

# mikserve's flag budget: -h may list at most 17 flags; the count is printed.
budget:
	@out="$$($(GO) run ./cmd/mikserve -h 2>&1)" || { echo "$$out"; exit 1; }; \
	n="$$(echo "$$out" | grep -c '^  -')"; \
	echo "mikserve flags: $$n (budget 17)"; \
	if [ "$$n" -gt 17 ]; then echo "mikserve -h lists $$n flags, over the budget of 17"; exit 1; fi

# Short fuzzing burst against the serving layer's input handling (/plan,
# /execute, /model and /generate bodies, GEMM shapes), the planner's sweep ≡ reference
# oracle, the NPU allocator and the simulator's cohort event loop ≡ their
# references, the graph digest the compiled table is keyed by (equal
# digest ⇒ equal content), and the on-disk tuned-library loader.
fuzz:
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzPlanRequest -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzGemmShape -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzModelRequest -fuzztime 10s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzGenerateRequest -fuzztime 10s
	$(GO) test ./internal/poly/ -run '^$$' -fuzz FuzzPlanEquivalence -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzStaticAssign -fuzztime 10s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzSimRun -fuzztime 10s
	$(GO) test ./internal/graphrt/ -run '^$$' -fuzz FuzzGraphDigest -fuzztime 10s
	$(GO) test ./internal/tune/ -run '^$$' -fuzz FuzzLoadLibrary -fuzztime 10s

bench:
	$(GO) test -bench=. -benchmem ./...

# Benchmark gate: run every mikbench suite and compare against the committed
# baseline. Fails on any change to an exact field (chosen programs, cycle and
# goodput bits, digests, counts), any growth of allocs/op or bytes/op, or a
# failed self-check. Wall-clock numbers are reported, never gated.
perf:
	$(GO) run ./cmd/mikbench -baseline BENCH_gate.json -out bench-current.json

# Refresh the committed baseline (commit the result).
baseline:
	$(GO) run ./cmd/mikbench -out BENCH_gate.json

clean:
	$(GO) clean ./...
