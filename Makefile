# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

# bench-json pipes `go test` into a converter; pipefail keeps a failing
# benchmark run failing the target (and the CI job) instead of being
# masked by the converter's exit status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
# The report is a local artifact (git-ignored); committed BENCH_PR*.json
# files are trajectory points that bench-json and clean never touch.
BENCH_JSON ?= bench-local.json
# bench-diff compares against the last committed trajectory point.
BENCH_BASE ?= BENCH_PR10.json

.PHONY: build test test-short race bench bench-json bench-diff smoke-presets profile clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

# Full benchmark pass (slow; CI uses bench-json's smoke settings).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-json runs every benchmark once (smoke mode) and converts the
# stream into a machine-readable report, the perf-trajectory artifact CI
# archives per run. Override BENCHTIME for longer local runs:
#
#	make bench-json BENCHTIME=2s
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime $(BENCHTIME) -benchmem ./... \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-diff prints per-benchmark deltas between the previous committed
# report and the current one (run `make bench-json` first to produce
# it). Report-only: regressions are flagged in the output but do not
# fail the target — smoke-mode ns/op is noisy; trust the allocs/op
# column. For a blocking local check: go run ./cmd/benchdiff -fail ...
bench-diff:
	$(GO) run ./cmd/benchdiff $(BENCH_BASE) $(BENCH_JSON)

# smoke-presets runs the large-scale sweep presets (million-qps,
# cluster, sharded, faulty-cluster, hour-long) at tiny size — 1 repetition, a few
# thousand samples — so CI proves the preset paths end to end on every commit
# without paying the full-size minutes. Full size is simply the same
# commands without the -runs/-samples overrides. The -spec lines do the
# same for the declarative workload-spec front door: a preset
# re-expressed as a spec and a phase-program spec, through both CLIs. The
# fig6 line runs Social Network as a consistent-hash fleet with client
# timeouts and retries, so a figure grid's -replicas, -router, -timeout
# and -retries overrides are exercised end to end.
smoke-presets:
	$(GO) run ./cmd/repro -experiment million-qps -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment cluster -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment sharded -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment hour-long -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment faulty-cluster -runs 1 -samples 2000
	$(GO) run ./cmd/repro -experiment fig6 -runs 1 -samples 300 -replicas 3 -router consistent-hash -timeout 10ms -retries 1
	$(GO) run ./cmd/repro -spec examples/cluster.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/sharded.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/phases-spike.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/repro -spec examples/faulty-cluster.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset million-qps -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset sharded -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset cluster -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -preset faulty-cluster -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -spec examples/onoff-sessions.yaml -runs 1 -samples 2000
	$(GO) run ./cmd/labsim -spec examples/straggler.yaml -runs 1 -samples 2000

# profile captures CPU and allocation profiles of a reference sweep: the
# request-path benchmark, which exercises the whole hot path (engine event
# loop, loadgen state machines, netmodel delivery, service tiers, hw
# cores). How to read the output:
#
#	go tool pprof -top cpu.pprof                      # hottest functions by CPU
#	go tool pprof -top -sample_index=alloc_objects mem.pprof   # who still allocates
#	go tool pprof -http=:8080 cpu.pprof               # flame graph in a browser
#
# After the PR 4 pooling refactor the alloc profile of the typed path
# should show only per-run setup (machines, RNG splits, recorders); any
# per-request entry appearing there is a regression — cross-check with
# BenchmarkRequestPathAllocs and the sim package's zero-alloc test.
#
# Sharded runs are label-attributed: every shard worker carries the
# pprof label shard=<i> (sim/shard.go), and the cascade and mailbox
# paths are named frames (wheel.cascadeChain, ShardSet.drainInbox,
# epochBarrier.wait), so a sharded profile splits cleanly into
# barrier / mailbox / cascade / event-execution buckets:
#
#	make profile PROFILE_BENCH=BenchmarkShardedRun4
#	go tool pprof -tagfocus shard=1 cpu.pprof      # one shard's time
#	go tool pprof -focus 'cascadeChain|drainInbox|epochBarrier' -top cpu.pprof
PROFILE_BENCH ?= BenchmarkRequestPathAllocs/typed
profile:
	$(GO) test ./internal/loadgen -run '^$$' -bench '$(PROFILE_BENCH)' \
		-benchtime 3s -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof mem.pprof (see comments above this target for how to read them)"

clean:
	rm -f $(BENCH_JSON) cpu.pprof mem.pprof loadgen.test
