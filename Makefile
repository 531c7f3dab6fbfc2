# Convenience targets mirroring the CI jobs. `make lint` is the gate a PR
# must pass: vet plus the repo's own invariant checker (cmd/lshlint).

GO ?= go

.PHONY: all build test race lint fuzz purego fma chaos crash bench bench-e2e cover size serve-allocs

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet + lshlint: the four custom analyzers (ctxladder, hotpathalloc,
# guardedby, ioerr) over the whole module. Any finding fails.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lshlint ./...

# Short smoke run of every fuzz target, mirroring the CI fuzz job.
fuzz:
	$(GO) test ./internal/blockstore -run '^$$' -fuzz FuzzNextRun -fuzztime 20s
	$(GO) test ./internal/blockstore -run '^$$' -fuzz FuzzChecksumRoundTrip -fuzztime 20s
	$(GO) test ./internal/diskindex -run '^$$' -fuzz FuzzUint40RoundTrip -fuzztime 20s
	$(GO) test ./internal/diskindex -run '^$$' -fuzz FuzzChainRoundTrip -fuzztime 20s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALRecordRoundTrip -fuzztime 20s
	$(GO) test . -run '^$$' -fuzz FuzzSearchV1Request -fuzztime 20s
	$(GO) test ./internal/vecmath -run '^$$' -fuzz FuzzSqDistBounded -fuzztime 20s
	$(GO) test ./internal/lsh -run '^$$' -fuzz FuzzHashesAt -fuzztime 20s
	$(GO) test ./internal/lsh -run '^$$' -fuzz FuzzProjectBatch -fuzztime 20s

# The portable kernels, as CI's purego step builds them.
purego:
	$(GO) test -tags purego ./internal/vecmath ./internal/diskindex ./internal/memindex ./internal/lsh ./internal/dataset

# No fused multiply-add in the bit-pinned kernels. The arm64 compiler fuses
# x*y + z into one instruction unless the product is explicitly converted,
# and a fused result changes the hashes and distances the golden digests
# pin. special.go is not bit-pinned and is not checked.
fma:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/lsh ./internal/vecmath 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -q 'TEXT' || { echo "fma: the compiler printed no assembly"; exit 1; }; \
	bad=$$(echo "$$out" | grep -E '/(lsh|multiprobe|vec|matvec|matvec_generic)\.go:[0-9]+\).*(FMADD|FMSUB|FNMADD|FNMSUB)'); \
	if [ -n "$$bad" ]; then echo "fused multiply-add in a bit-pinned kernel:"; echo "$$bad"; exit 1; fi

# Chaos suite: every storage configuration under injected faults, race on.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 .

# Crash-recovery gate: the crash-point sweep (every WAL append, sync, and
# block write killed in fail-stop and torn-write mode, then recovered), the
# concurrent update/search race tests (budgeted batches beside Insert
# included), the mutation-history golden digests, the packing updates keep
# (untouched buckets' bytes, no growth on delete, freed blocks reused, the
# stranded-bytes gauge against a recount) and the storage-option
# model test (random update/crash/reopen histories over partitions × I/O
# engine × the three ways to open a crash-safe index), all under the race
# detector.
crash:
	$(GO) test -race -count=1 \
		-run 'TestCrashRecoverySweep|TestGroupCommitCrashKeepsPrefix|TestConcurrentInsertSearch|TestMutationGoldenDigest|TestUpdatesKeepPacking|TestDeleteThenInsertReusesFreedHead|TestStrandedBytesMatchesRecount' \
		./internal/diskindex
	$(GO) test -race -count=1 -run 'TestWALFacadeConcurrentUpdates|TestBudgetedBatchSearchBesideInsert|TestStorageOptionModel' .

# Every benchmark three times over, then at counts that time them: the
# build's hash pass — the hash and projection kernels at lib-file-batch's
# shape (L=15, M=25, d=128), and HashKeys at n=20000, d=128 — and the wave
# searcher at serve-read's shape (n=100000, d=128, 4 partitions, k=10).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=3x ./...
	$(GO) test -run='^$$' -bench='HashesAt|ProjectBatch' -benchtime=20000x ./internal/lsh
	$(GO) test -run='^$$' -bench=HashKeys -benchtime=5x ./internal/memindex
	$(GO) test -run='^$$' -bench=ServedShape -benchtime=20x ./internal/diskindex

# The repo's end-to-end benchmark (BENCHMARK.json's command): lshload's four
# workloads against a real lshserve child and the file-backed facade. Pass
# driver arguments through ARGS, e.g. ARGS='--workload serve-read --seed 1'.
bench-e2e:
	bash cmd/lshload/run.sh $(ARGS)

# What one /v1/search costs the handler in heap bytes and allocations, on a
# 4-shard and a 1-shard index: the line TestHandleSearchAllocBudget logs.
serve-allocs:
	@$(GO) test -count=1 -run 'TestHandleSearchAllocBudget' -v . | grep 'handler:'

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# The size numbers CHANGES.md reports: non-test Go lines outside the
# benchmark driver, how many //lsh:ladder loops the tree holds, how many
# flags lshserve defines, how many With* options the facade exports, and
# the non-test Go lines and in-module packages lshserve links (its build
# for this GOOS/GOARCH, from go list -deps).
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/lshload/*' | xargs cat | wc -l
	@grep -rn 'lsh:ladder' --include='*.go' . | grep -v _test | grep -v analyzers | grep -v cmd/lshlint | wc -l
	@echo "lshserve flags: $$(grep -cE '= fs\.[A-Za-z0-9]+\("' cmd/lshserve/main.go)"
	@echo "facade With* options: $$(ls *.go | grep -v '_test\.go$$' | xargs cat | grep -c '^func With')"
	@files=$$($(GO) list -deps -f '{{if .Module}}{{if eq .Module.Path "e2lshos"}}{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{end}}{{end}}' ./cmd/lshserve); \
	pkgs=$$($(GO) list -deps -f '{{if .Module}}{{if eq .Module.Path "e2lshos"}}{{.ImportPath}}{{end}}{{end}}' ./cmd/lshserve | grep -c .); \
	echo "lshserve links: $$(cat $$files | wc -l) lines in $$pkgs packages"
