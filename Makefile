GO ?= go

.PHONY: build test vet race kernel-parity ci-guard census verify bench-smoke fuzz run-deshd

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# faultfs backs the WAL segment per platform, so vet the darwin and
# windows file sets as well.
vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

# The race detector runs over the packages that fan work out to the
# worker pool (Phase-1 mini-batch BPTT shards, Phase-3 inference, the Figure-8
# sweep via experiments' core usage, mini-batch skip-gram training),
# the pool itself, the sharded streaming engine behind deshd, its
# crash-recovery substrate, the continuous-learning loop that retrains
# and hot-swaps models behind live traffic, the cluster tier
# (router + instances + retry) that coordinates shard handoff across
# processes, and the f32/f64 kernel parity suites in tensor.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/core/... ./internal/embed/... ./internal/nn/... ./internal/par/... ./internal/stream/... ./internal/chain/... ./internal/persist/... ./internal/adapt/... ./internal/cluster/... ./internal/retry/... ./internal/chaos/... ./internal/tensor/...

# kernel-parity exercises all three tiers of the one build fork, serving
# and training: the packages on top of the LSTM assembly kernels — the
# gate kernel (tensor.GateWeights serving, tensor.GateMatVecT in the
# training forward), the activation kernel (tensor.ActivateLSTM,
# dispatched by nn.activate) and the two training kernels (GateBackward's
# row update, tensor.RMSpropStep under opt.RMSprop), each at AVX2(+FMA)
# and AVX-512 width — run under the race detector as built by default
# and with -tags purego (GateMatVec, axpy4, the scalar sigmoid/tanh and
# RMSprop loops), and every bitwise parity suite must hold on both,
# TestTrainedWeightsPinned included. The default leg covers both
# assembly tiers on an AVX-512 host: the tensor and nn parity tables and
# fuzz seeds loop over every tier CPUID allows, while the suites above
# them run the tier that serves. The arm64 vet only cross-compiles: it
# keeps the non-amd64 file set building and lets asmdecl check the
# stubs.
kernel-parity:
	GOMAXPROCS=4 $(GO) test -race ./internal/tensor/ ./internal/nn/ ./internal/opt/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -tags purego ./internal/tensor/ ./internal/nn/ ./internal/opt/ ./internal/core/
	GOARCH=arm64 $(GO) vet ./...

# ci-guard fails if a `go test -run` pattern in the CI workflow or the
# verify skill selects no test, if a binary links the equivalence
# harness (internal/chaos), or if the docs drift from the code: a cited
# test or DESIGN section that does not exist, a package DESIGN §3 does
# not list, a fuzz target `fuzz` or CI does not run, or a ROADMAP item
# cited by number.
ci-guard:
	bash scripts/check_ci_tests.sh

# census fails on a function under internal/ that none of the shipped
# binaries (cmd/*, examples/* and the benchmark's deshbench, built with
# inlining off) links, unless scripts/census_allow.txt names it with a
# reason — and on an allowlist entry that no longer covers anything.
census:
	bash scripts/census.sh

# verify is the tier-1 gate: build + full tests, plus vet, the race
# detector over the concurrent packages, the kernel parity runs, the
# CI name guard and the linker census.
verify: build test vet race kernel-parity ci-guard census

# bench-smoke proves the repository's benchmark (bench/, its own
# module) still builds against the cluster and stream API and that
# every workload's alert-multiset check passes: all four workloads at
# 1/20 scale (~5 s, timings indicative only), then the benchmark's own
# tests. Everything it writes stays under .bench_build/.
bench-smoke:
	bash bench/run.sh -smoke
	cd bench && $(GO) test ./...

# fuzz runs every fuzz target the module declares beyond its committed
# seed corpus (which `test` already replays as regular cases):
# the network-facing line parser (against its time.Parse + Fields/Join
# oracle), its integer timestamp decode (against time.Date, under ==),
# the single-scan masker (against the same oracle), the event-time
# reorder buffer (its invariants, and the in-order paths of dup/add
# against the scanning, always-pushing reference; kilobyte inputs, so
# the minimiser is capped), the model file header, the cluster control
# payloads, the instance's record /ingest, the f32 conversion, the gate
# kernel (assembly against GateMatVec, bit for bit), the training
# kernels (row update and RMSprop against their Go loops, bit for bit)
# and the activation kernel (assembly against the scalar sigmoid/tanh
# loop, i.e. against this toolchain's math.Exp and math.Tanh, bit for
# bit). scripts/check_ci_tests.sh fails on a target missing here.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/logparse/ -fuzz FuzzParseLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logparse/ -run '^$$' -fuzz FuzzStampParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/catalog/ -run '^$$' -fuzz FuzzMaskParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream/ -run '^$$' -fuzz FuzzReorderBuffer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream/ -run '^$$' -fuzz FuzzEventTimeParity -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzModelHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzClusterPayload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzIngestRecords -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzConvert32 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzGateKernelParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz FuzzTrainKernelParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn/ -run '^$$' -fuzz FuzzActivationParity -fuzztime $(FUZZTIME)

# run-deshd is the daemon smoke test: generate a log, train a small
# model, replay the log through deshd, and assert it raises at least
# one alert, serves non-zero metrics and exits cleanly on SIGINT.
run-deshd:
	./scripts/smoke_deshd.sh
