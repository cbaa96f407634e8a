# HARNESS II reproduction — build/test/bench entry points.
# `make ci` is what .github/workflows/ci.yml runs.

GO ?= go

.PHONY: all build vet cross fmt-check lint loc test test-poison race race-shm race-xdr race-rungs race-fleet cover bench bench-xdr bench-e15 bench-e18 bench-e19 hbench fuzz chaos-smoke churn-smoke fleet-smoke metacity-smoke benchmark benchmark-smoke benchmark-pairs ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Vet for the platforms the build host is not: 32-bit (386, arm), a
# big-endian one (s390x), and two other operating systems. These are the
# builds that compile the XDR codec's portable swap loops
# (internal/xdr/zerocopy_portable.go); amd64 and arm64 carry the word
# kernels instead.
CROSS_TARGETS ?= linux/386 linux/arm linux/s390x darwin/arm64 windows/amd64

cross:
	@set -e; for t in $(CROSS_TARGETS); do \
		echo "go vet $$t"; \
		GOOS=$${t%/*} GOARCH=$${t#*/} $(GO) vet ./...; \
	done

# Fails listing the files gofmt would change.
fmt-check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Static analysis beyond vet. Fetched on demand (needs network); CI runs
# the same pinned version.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

# Non-test and test Go lines per package (benchmark/ excluded): the count
# every line-count criterion in ISSUE.md and ROADMAP.md is checked with.
loc:
	bash tools/loc.sh

test:
	$(GO) test ./...

# The borrow-contract audit (DESIGN.md S30): the suites that drive the
# XDR and shm servers, built so that a worker's arena is overwritten with
# NaNs the moment a request is answered. A component that keeps a request
# slice past its Invoke fails them with garbage instead of passing by luck.
test-poison:
	$(GO) test -tags xdrpoison ./internal/xdr/ ./internal/invoke/ ./internal/core/ ./internal/dvm/

# Coverage profile plus the per-package summary CI publishes.
cover:
	$(GO) test -cover -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Race-detector pass over the whole tree (timing-shape tests skip
# themselves under the detector's slowdown).
race:
	$(GO) test -race ./...

# The shm rung under the race detector, repeated: ownership of each
# ring's read side moves between callers (client) and workers (server).
race-shm:
	$(GO) test -race -count=5 -run 'Shm' ./internal/invoke ./internal/shmring

# The XDR mux under the race detector, repeated: ownership of the
# server's read turn moves between a connection's workers, and the lead
# of each write batch between callers (client) and workers (server).
race-xdr:
	$(GO) test -race -count=5 -run 'XDR' ./internal/invoke

# The binding ladder's rows under the race detector, repeated: the Port
# conformance table (internal/invoke/conformance_test.go, one row per
# behaviour, one column per rung Dial opens) and the rows beside it. Every
# rung runs in the one instrumented wrapper, which refuses a done context,
# injects chaos, traces and counts before the bare transport.
race-rungs:
	$(GO) test -race -count=3 -run 'Rung|StatefulInstanceViaAllBindings|ShedsWhenOverloaded|InvokeMetricsPerBinding' ./internal/invoke

# The fleet supervisor under the race detector, repeated: every unit's
# lifecycle has one owner goroutine, and stops, cycles and kills race it.
race-fleet:
	$(GO) test -race -count=10 ./internal/fleet/

# All Go microbenchmarks with allocation stats.
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# The XDR and shm invoke and codec microbenchmarks, plus the two decode and
# kernel pairs the retired E14/E16 tables measured: the word-swap kernels
# against the portable loops (BenchmarkSwap*, internal/xdr) and the SOAP
# scan against its DOM fallback (BenchmarkDecodeCall*, internal/soap).
bench-xdr:
	$(GO) test -run xxx -bench 'Benchmark(XDR|Shm)Invoke' -benchmem -benchtime 2s ./internal/invoke/
	$(GO) test -run xxx -bench . -benchmem -benchtime 2s ./internal/xdr/
	$(GO) test -run xxx -bench 'BenchmarkDecodeCall' -benchmem ./internal/soap/

# The S34 metacity gate and tables: 0 allocs/op on the cache-hit and
# registry-Get read paths, the deterministic virtual-time macro slice
# inside its availability/p99 envelope, and the E15 throughput/latency
# curves per coherency strategy and resilience policy (EXPERIMENTS.md
# E15). The hot-path microbenchmarks behind the before/after table run
# last.
bench-e15:
	E15_GATE=1 $(GO) test -run TestE15Gate -v ./internal/bench/
	$(GO) run ./cmd/hbench -exp E15
	$(GO) test -run xxx -bench 'BenchmarkHot|BenchmarkRegistryWrite' -benchmem -benchtime 1s ./internal/registry/

# The S32 fleet gate and tables: time-to-N-serving plus recovery-after-
# kill latency against the restart-backoff bound, with zero failed finds
# during recovery (EXPERIMENTS.md E18).
bench-e18:
	E18_GATE=1 $(GO) test -run TestE18Gate -v ./internal/bench/
	$(GO) run ./cmd/hbench -exp E18

# The S33 WAN data-plane gate and tables: adaptive compression vs raw
# through paced LAN/WAN link proxies, plus the compression capability
# matrix (client policy x server policy) under the race detector
# (EXPERIMENTS.md E19).
bench-e19:
	E19_GATE=1 $(GO) test -run TestE19Gate -v ./internal/bench/
	$(GO) test -race -run 'TestXDRNegotiation' -v ./internal/invoke/
	$(GO) run ./cmd/hbench -exp E19

# Regenerate the experiment tables (quick parameters; add ARGS=-full).
hbench:
	$(GO) run ./cmd/hbench $(ARGS)

# Short fuzz pass over the frame header/flags decoder, the
# compress-then-decompress frame identity, the array decoders, the
# zero-copy-vs-portable codec differential, the SOAP
# fast-vs-DOM differential, the XML text kernels against their byte-loop
# oracles, the wire lexical-form round trip, the WSDL scan-vs-DOM differential, the shm
# ring record framing, the chaos spec
# parser, the resilience policy validators, the cluster gossip digest
# codec, and the ring rebalance planner, the fleet
# deployment-descriptor grammar, the local-address parser, and the
# cross-binding differential (one value through every rung that carries
# its kind).
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrameV3 -fuzztime 30s ./internal/xdr/
	$(GO) test -run xxx -fuzz FuzzXDRV3Differential -fuzztime 30s ./internal/xdr/
	$(GO) test -run xxx -fuzz FuzzDecoderArrays -fuzztime 30s ./internal/xdr/
	$(GO) test -run xxx -fuzz FuzzXDRZeroCopyDifferential -fuzztime 30s ./internal/xdr/
	$(GO) test -run xxx -fuzz FuzzFastDecodeDifferential -fuzztime 30s ./internal/soap/
	$(GO) test -run xxx -fuzz FuzzTextKernels -fuzztime 30s ./internal/xmlq/
	$(GO) test -run xxx -fuzz FuzzTextRoundTrip -fuzztime 30s ./internal/wire/
	$(GO) test -run xxx -fuzz FuzzWSDLParseDifferential -fuzztime 30s ./internal/wsdl/
	$(GO) test -run xxx -fuzz FuzzShmRingRecord -fuzztime 30s ./internal/shmring/
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 30s ./internal/resilience/chaos/
	$(GO) test -run xxx -fuzz FuzzPolicyOptions -fuzztime 30s ./internal/resilience/
	$(GO) test -run xxx -fuzz FuzzGossipDigest -fuzztime 30s ./internal/registry/cluster/
	$(GO) test -run xxx -fuzz FuzzRingPlan -fuzztime 30s ./internal/registry/cluster/
	$(GO) test -run xxx -fuzz FuzzParseDescriptor -fuzztime 30s ./internal/fleet/
	$(GO) test -run xxx -fuzz FuzzParseLocalAddress -fuzztime 30s ./internal/invoke/
	$(GO) test -run xxx -fuzz FuzzRungsAgree -fuzztime 30s ./internal/invoke/

# The deterministic chaos sweep at CI smoke size (seconds).
chaos-smoke:
	$(GO) run ./cmd/hbench -exp E13,E13b -short

# The cluster churn smoke: kill one of three peers, and absorb a joiner,
# asserting every entry stays findable; then the whole cluster package
# under the race detector.
churn-smoke:
	$(GO) test -run 'TestClusterSurvivesPeerDeath|TestClusterJoinRebalances' -v ./internal/registry/cluster/
	$(GO) test -race ./internal/registry/cluster/

# The fleet smoke: a daemon supervising real HARNESS II nodes over the
# HTTP control protocol; kill one mid-traffic and assert automatic
# restart, re-enrollment, and lease recovery with zero failed finds.
fleet-smoke: race-fleet
	$(GO) test -run 'TestE18FleetSmoke|TestE18RecoverySmoke' -v -count=1 ./internal/bench/

# The metacity smoke: both E15 modes race-enabled at a small client
# count (the always-on slice), plus the env-gated alloc/envelope gate.
metacity-smoke:
	$(GO) test -race -run 'TestE15Smoke|TestE15SimnetDeterminism' -v ./internal/bench/
	E15_GATE=1 $(GO) test -run TestE15Gate -v ./internal/bench/

# The repo's benchmark (BENCHMARK.json): five closed-loop workloads over
# the real stack, both passes, written as a run record that
# `bash benchmark/run.sh -compare a.json b.json` diffs against another.
# benchmark/ is a module of its own, so `build`, `vet` and `test` above
# never compile it; benchmark-smoke does (known-answer tests plus a
# sub-second run of every workload), which is what catches an API change
# in the tree that breaks it.
BENCH_OUT ?= bench-record.json

benchmark:
	bash benchmark/run.sh -out $(BENCH_OUT)

benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# A claim against BENCHMARK.json (choosing-metrics section 8): N
# alternating parent/change pairs of one workload, BASE (a revision,
# checked out into a temporary git worktree, or a checkout directory)
# against the working tree, fresh seed per pair; prints each side's
# median and quartiles per end-to-end metric and the pair win count.
#   make benchmark-pairs WORKLOAD=ws-loop BASE=HEAD~1 N=10
N ?= 10

benchmark-pairs:
	bash tools/benchpairs.sh "$(WORKLOAD)" "$(BASE)" $(N)

ci: fmt-check vet cross build race race-shm race-xdr race-rungs race-fleet test-poison chaos-smoke churn-smoke fleet-smoke metacity-smoke benchmark-smoke

clean:
	$(GO) clean ./...
