GO ?= go

.PHONY: build test vet race verify bench bench-smoke fuzz run-deshd

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector runs over the packages that fan work out to the
# worker pool (mini-batch BPTT shards, Phase-3 inference, the Figure-8
# sweep via experiments' core usage, mini-batch skip-gram training),
# the pool itself, the sharded streaming engine behind deshd, its
# crash-recovery substrate, the continuous-learning loop that retrains
# and hot-swaps models behind live traffic, the cluster tier
# (router + instances + retry) that coordinates shard handoff across
# processes, and the f32/f64 kernel parity suites in tensor.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/core/... ./internal/embed/... ./internal/nn/... ./internal/par/... ./internal/stream/... ./internal/chain/... ./internal/persist/... ./internal/adapt/... ./internal/cluster/... ./internal/retry/... ./internal/chaos/... ./internal/tensor/...

# verify is the tier-1 gate: build + full tests, plus vet and the race
# detector over the concurrent packages.
verify: build test vet race

# bench verifies first, then runs the full per-table/figure benchmark
# suite with allocation reporting; results land in bench.txt.
bench: verify
	$(GO) test -bench=. -benchmem -count=5 | tee bench.txt

# bench-smoke proves the repository's benchmark (bench/, its own
# module) still builds against the cluster and stream API and that
# every workload's alert-multiset check passes: all four workloads at
# 1/20 scale (~5 s, timings indicative only), then the benchmark's own
# tests. Everything it writes stays under .bench_build/.
bench-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test ./...

# fuzz exercises the network-facing line parser (against its time.Parse
# + Fields/Join oracle), the single-scan masker (against the same
# oracle), the event-time reorder buffer and the instance's record
# /ingest beyond their committed seed corpora (which `test` already
# replays as regular cases).
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/logparse/ -fuzz FuzzParseLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/catalog/ -run '^$$' -fuzz FuzzMaskParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream/ -run '^$$' -fuzz FuzzReorderBuffer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzIngestRecords -fuzztime $(FUZZTIME)

# run-deshd is the daemon smoke test: generate a log, train a small
# model, replay the log through deshd, and assert it raises at least
# one alert, serves non-zero metrics and exits cleanly on SIGINT.
run-deshd:
	./scripts/smoke_deshd.sh
