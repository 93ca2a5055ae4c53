# Convenience targets for the wasmcontainers reproduction.

GO ?= go

.PHONY: all build vet test race obs-overhead fuzz-smoke fuzz-long tier1-shapes http-smoke results-check product-cover bench benchmark figures results examples clean

all: build vet test race obs-overhead fuzz-smoke http-smoke results-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test:
	$(GO) test ./...

# Concurrency check: the serve warm pool, the dispatcher's observer
# accessors, and the obs registry/tracer are hammered from many goroutines.
# TestChaosObserversRaceFree and TestConcurrentDrawsRaceFree additionally
# poll the dispatcher's queue and in-flight counts and the fault injector from
# 8 goroutines while a chaos simulation runs.
race:
	$(GO) test -race ./...

# Telemetry overhead gate: the per-request instrumentation sequence must not
# allocate, with telemetry disabled or enabled (span attributes are encoded
# into the tracer's chunked span log, never retained). The anchored grep
# keeps "240 allocs/op" from matching "0 allocs/op". The tsdb leg covers the
# disabled and the same-window sample path; a window close may allocate, for
# its one registry read. The last leg pins the accounting side of the same
# request: splitting a replica's charge into shared and private on every
# memory event allocates nothing, and observing a router or a dispatcher
# costs a request no allocation (the router's series are read from the
# shards' stats when scraped; the dispatcher's spans are copied). The
# heap test is the memory side of the same request: an idle warm instance
# pins no linear memory, and the buffer a request materialised is recycled
# (which is also why the replica test's acquire/invoke/release stays at 2
# allocations). The host side of a warm request is pinned too: a DES
# At + Step with a prebuilt closure allocates nothing (events are values),
# and one warm invoke through the gateway's ServeHTTP, with a real text
# access-log writer, stays at or under 37 allocations. A warm instance is
# pinned at the engine and at pool fill: Instantiate of a cached
# request-handler takes at most 2 allocations, and NewPool of four such
# instances at most 10. A cold deploy is pinned as a whole and layer by
# layer: a never-seen handler variant through ServeHTTP allocates at most
# 107 times, and TestDeployAllocLedger pins the variant build, encode,
# decode, validate, precompile, compile, instantiate and pool fill each at
# its reading, and the whole deploy at its reading + 3. Both skip under -race, so this is the
# run that holds them. The last leg is the
# one-shot container path: a crun-wamr pod allocates at most 98 times, and a
# live 400-pod cluster holds at most 3.3 KiB of heap per pod (-count=1, so a
# cached pass cannot hide a regression). The gateway heap leg is the daemon's
# own bookkeeping: 2 000 warm invokes through ServeHTTP grow a warm server's
# live heap by at most 300 KB, most of it the span log, and 512 lazy deploys
# grow a cold-deploy server's by at most 12 KiB each (each deploy's four warm
# instances alias one baseline image that stores only its non-zero bytes).
obs-overhead:
	@out=$$($(GO) test -run NONE -bench BenchmarkInvokeTelemetryDisabled \
		-benchmem -benchtime 10000x ./internal/obs/); \
	echo "$$out"; \
	if ! echo "$$out" | grep -qE '[[:space:]]0 allocs/op'; then \
		echo "obs-overhead: disabled telemetry path allocates"; exit 1; fi
	@out=$$($(GO) test -run NONE -bench BenchmarkInvokeTelemetryEnabled \
		-benchmem -benchtime 10000x ./internal/obs/); \
	echo "$$out"; \
	if ! echo "$$out" | grep -qE '[[:space:]]0 allocs/op'; then \
		echo "obs-overhead: enabled span emission allocates"; exit 1; fi
	@out=$$($(GO) test -run NONE -bench 'BenchmarkAdvanceDisabled|BenchmarkAdvanceSameWindow' \
		-benchmem -benchtime 10000x ./internal/obs/tsdb/); \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -cE '[[:space:]]0 allocs/op'); \
	if [ "$$n" -ne 2 ]; then \
		echo "obs-overhead: tsdb sample path allocates"; exit 1; fi
	$(GO) test -count=1 -run 'TestReplicaRequestAllocs$$' ./internal/cluster
	$(GO) test -count=1 -run 'TestRouterRequestAllocsTelemetryParity$$|TestDispatcherRequestAllocsTelemetryParity$$|TestIdleInstancesHoldNoPrivatePages$$|TestNewPoolAllocs$$' ./internal/serve
	$(GO) test -count=1 -run 'TestInstantiateAllocs$$' ./internal/engine
	$(GO) test -count=1 -run 'TestEngineScheduleAllocs$$' ./internal/des
	$(GO) test -count=1 -run 'TestWarmInvokeAllocs$$|TestLazyDeployAllocs$$|TestDeployAllocLedger$$' ./internal/gateway
	$(GO) test -count=1 -run 'TestWarmServerLiveHeap$$|TestLazyDeployLiveHeap$$' ./internal/gateway
	$(GO) test -count=1 -run 'TestDensityPodAllocBytes$$|TestDensityPodLiveHeap$$' .

# Fuzz smoke: ten seconds of the copy-on-write memory oracle (random read /
# write / grow / bulk-op / reset programs over two memories sharing one image
# that stores none, part or all of its bytes, against a full-copy model,
# through the Memory API and guest code at both tiers), then
# five seconds of tier 1's fused conditionals (a comparison or eqz branched on
# by if or br_if, in each operand form, optionally fed by an integer binop of
# two locals or a local and a constant, div/rem traps included, on random
# operands and fuel, must match tier 0 in result, trap, instruction count and
# fuel left), then five seconds of the binary decoder (Decode and Validate
# never panic, and a valid module's encoding decodes and re-encodes to the
# same bytes), then five seconds of the gateway's HTTP surface (any method,
# path and body gets a JSON error envelope for every status >= 400, and a 5xx
# only with a MapError code), then five seconds of pylite (any source, run
# twice under a step bound, never panics, fails only with a syntax, runtime
# or step-limit error, and gives the same stdout, error, Steps and HeapBytes
# both times), then five seconds of copy-on-write filesystems (random path
# writes, handle writes and seeks, and Clones of clones over a source and up
# to four clones must read, after every step, like one independent path ->
# bytes map per FS), then five seconds of the WAT assembler (any text never
# panics, and an accepted module validates and round-trips through the
# binary format to the same bytes), then five seconds of the span tracer's
# chunked log (random spans with 0 to 5 attributes, pid, tid and start jumping
# both ways, interned and verbatim strings, through random capacities, must
# come back from Spans and Dropped like a slice that keeps every span). A
# failing input lands in the package's testdata/fuzz/ and then fails plain
# `go test` until fixed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMemoryCoW -fuzztime 10s ./internal/wasm/exec
	$(GO) test -run '^$$' -fuzz FuzzTierDiffConditional -fuzztime 5s ./internal/wasm/exec
	$(GO) test -run '^$$' -fuzz FuzzDecodeValidate -fuzztime 5s ./internal/wasm
	$(GO) test -run '^$$' -fuzz FuzzGatewayRequest -fuzztime 5s ./internal/gateway
	$(GO) test -run '^$$' -fuzz FuzzPyliteRunSource -fuzztime 5s ./internal/pylite
	$(GO) test -run '^$$' -fuzz FuzzVFSClone -fuzztime 5s ./internal/vfs
	$(GO) test -run '^$$' -fuzz FuzzWATAssemble -fuzztime 5s ./internal/wat
	$(GO) test -run '^$$' -fuzz FuzzTracerLog -fuzztime 5s ./internal/obs

# Fuzz long: a minute each of the four targets that guard the interpreter's
# input and its tiers — tier 1's fused conditionals against tier 0, the
# copy-on-write memory oracle, the binary decoder and validator, and the WAT
# assembler's round trip. About four minutes; not part of `all`.
fuzz-long:
	$(GO) test -run '^$$' -fuzz FuzzTierDiffConditional -fuzztime 60s ./internal/wasm/exec
	$(GO) test -run '^$$' -fuzz FuzzMemoryCoW -fuzztime 60s ./internal/wasm/exec
	$(GO) test -run '^$$' -fuzz FuzzDecodeValidate -fuzztime 60s ./internal/wasm
	$(GO) test -run '^$$' -fuzz FuzzWATAssemble -fuzztime 60s ./internal/wat

# Tier-1 shapes: builds the exec test binary with -covermode=count, runs
# each TestTier1DispatchLedger row alone under it, and prints a markdown
# table of the calls every tier-1 closure body takes per kernel: the table
# EXPERIMENTS.md keeps under "Tier-1 closures priced on the kernel corpus".
# A specialised closure no kernel calls is a candidate for the shared
# evaluator. About 5 s; not part of `all`.
tier1-shapes:
	@GO=$(GO) $(GO) run ./internal/wasm/exec/testdata/tier1shapes

# HTTP smoke: the daemon's stories over a real socket, fresh (-count=1), in
# one go test line.
#   TestServeUntilSignal: run continuumd's real serve loop on a random
#     loopback port, invoke over HTTP, scrape /metrics for a populated latency
#     histogram, SIGTERM, and assert exit code 0 with the admission identity
#     reported true for every function.
#   TestLazyFunctionCreation: lazy function creation over HTTP (modules
#     created on first request), per-module labeled router metrics on
#     /metrics, router stats on /v1/cluster.
#   TestLazyTemplateShapesEveryFunction: a lazy gateway with no fixed
#     functions starts empty, and the first request-handler invoke is built
#     from the template (wasmtime, pool 8 on /v1/cluster), not DefaultFunction.
#   TestTimeSeriesCountsFaultBurst: 40 healthy requests then a 100% trap-rate
#     burst of 40 at dilation 0 — the per-window dispatch_* deltas on
#     /v1/timeseries sum to 80 submitted and 40 failed, /metrics reports the
#     same totals, and tsdb_windows_total counts the published windows.
#   TestUnmatchedRoutesUseEnvelope: an unknown path (the retired /v1/slo
#     among them) is a 404 unknown_route envelope, a wrong method a 405
#     method_not_allowed envelope with Allow.
#   TestNodeFailover: three simulated nodes at dilation 0 — kill the node the
#     function is placed on via POST /v1/cluster/nodes/{node}/fail, assert the
#     charge re-homed to a survivor and invokes keep returning 200; then the
#     one-node case (503 no_live_node, the pool keeps serving).
#   TestMetricsSumOverFunctions: on a gateway with two functions of different
#     pool sizes, every unlabeled dispatch_*/pool_*/modcache_* series on
#     /metrics is the sum of what the functions' own Stats() report (the cache
#     once per engine), the per-module router series are the shards'
#     DispatcherStats, and the tsdb's gauges are the same sums at the window
#     boundary.
#   TestRouterRequestAllocsTelemetryParity: a request through an observed
#     router allocates what one through an unobserved router does.
#   TestLazyDeployAllocs: a request naming a never-seen handler variant,
#     through ServeHTTP, allocates at most 107 times (variant copied from the
#     assembled handler, registration in place).
#   TestHandlerVariantEncodingMatchesAssembler: every variant encodes byte
#     for byte as the assembled spliced handler text, and mutating variants
#     leaves the handler's encoding untouched.
HTTP_SMOKE_RUN = 'TestServeUntilSignal$$|TestLazyFunctionCreation$$|TestLazyTemplateShapesEveryFunction$$|TestTimeSeriesCountsFaultBurst$$|TestUnmatchedRoutesUseEnvelope$$|TestNodeFailover$$|TestMetricsSumOverFunctions$$|TestRouterRequestAllocsTelemetryParity$$|TestLazyDeployAllocs$$|TestHandlerVariantEncodingMatchesAssembler$$'
HTTP_SMOKE_PKGS = ./cmd/continuumd ./internal/gateway ./internal/serve ./internal/workloads

http-smoke:
	$(GO) test -count=1 -run $(HTTP_SMOKE_RUN) $(HTTP_SMOKE_PKGS)

# Byte-stability gate: results/ is exactly what `continuum -exp all` writes,
# every byte on the virtual clock. Regenerate everything into a temp dir and
# diff -r it against the committed results/ — a moved byte, a missing file or
# a stray file (left by a retired experiment) all fail. A refactor that moves
# any of these bytes changed behaviour, not just code. The run also fails on
# the experiments' embedded gates: every faults cell verifies the admission
# identity (Submitted == Completed+Rejected+Expired+Failed) and that no
# request stalls, so a dispatcher liveness regression fails here even when
# unit tests miss it; tiers checks that a tier-0-only and an eagerly tiered
# invoke agree on results and instruction counts, that hotness cells actually
# tier up and record the artifact in cache accounting, and that tiered warm
# p50 improves.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/continuum" ./cmd/continuum && \
	"$$tmp/continuum" -exp all -outdir "$$tmp/results" > /dev/null && \
	diff -r "$$tmp/results" results && \
	echo "results-check: $$(ls results | wc -l) files byte-identical to results/"

# Product coverage: the statements, per package, that the shipped binaries
# reach. continuum and the benchmark are built with -cover over the whole
# module into a temp dir and share one GOCOVERDIR: `-exp all` runs (and
# must still match results/ byte for byte), then the benchmark runs its
# five workloads traced for 3 s each, then the http-smoke tests run with
# the same -coverpkg into the same directory (so continuumd's serve loop
# and the gateway's HTTP surface count), and `go tool covdata percent`
# prints the table. Unreached code is a candidate for deletion, not a verdict: a
# runtime still owes every valid module its opcodes and WASI calls. Not part
# of `all`; EXPERIMENTS.md keeps the table. Under -cover the traced
# benchmark's `separation` check on guest-compute can fail on a busy box
# (exec's share of p50 drops below its floor); ROADMAP 1(e) is the fix.
product-cover:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/cov" && \
	$(GO) build -cover -coverpkg=wasmcontainers/... -o "$$tmp/continuum" ./cmd/continuum && \
	$(GO) build -cover -coverpkg=wasmcontainers/... -o "$$tmp/benchmark" ./benchmark && \
	GOCOVERDIR="$$tmp/cov" "$$tmp/continuum" -exp all -outdir "$$tmp/results" > /dev/null && \
	diff -r "$$tmp/results" results && \
	{ GOCOVERDIR="$$tmp/cov" "$$tmp/benchmark" -seed 1 -seconds 3 -trace 1 > "$$tmp/benchmark.txt" || \
		{ cat "$$tmp/benchmark.txt"; exit 1; }; } && \
	{ $(GO) test -count=1 -cover -coverpkg=wasmcontainers/... -run $(HTTP_SMOKE_RUN) $(HTTP_SMOKE_PKGS) \
		-args -test.gocoverdir="$$tmp/cov" > "$$tmp/smoke.txt" || { cat "$$tmp/smoke.txt"; exit 1; }; } && \
	$(GO) tool covdata percent -i "$$tmp/cov"

# Run every benchmark once (tables, figures, ablations, microbenches,
# interpreter hot-loop and engine instantiate benches).
bench:
	$(GO) test -run NONE -bench=. -benchmem -benchtime 1x ./...

# The repo benchmark (BENCHMARK.json): every workload, timed; run files land
# in benchmark/out/. See benchmark/README.md.
benchmark:
	$(GO) run ./benchmark -seed 1

# Regenerate the paper's tables and figures on stdout.
figures:
	$(GO) run ./cmd/continuum -exp all

# Regenerate the committed results/ directory (txt + csv + json per
# experiment) from empty, so a retired experiment leaves no file behind.
results:
	rm -rf results
	$(GO) run ./cmd/continuum -exp all -outdir results > /dev/null

examples:
	$(GO) run ./examples/density-sweep
	$(GO) run ./examples/hybrid-deployment
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/serving-throughput
	$(GO) run ./examples/standalone-wasm
	$(GO) run ./examples/startup-crossover

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
