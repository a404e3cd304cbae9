GO ?= go
VET_BIN := bin/predata-vet

.PHONY: all build test race fmt loc vet vet-fixtures bench-smoke benchmark benchmark-compare trace-test elastic-soak adversary-soak restart-soak serve-soak evaluation clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# loc prints the non-test, non-testdata Go lines of every top-level
# package (cmd/X, internal/X, examples/X, benchmark) and of the tree —
# the size figure ROADMAP aim 2 tracks and a simplicity PR reports at
# the parent and at the change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
	  | xargs -0 wc -l \
	  | awk '$$2 == "total" { next } \
	      { n = split($$2, p, "/"); pkg = n > 3 ? p[2] "/" p[3] : (n > 2 ? p[2] : "."); loc[pkg] += $$1; all += $$1 } \
	      END { for (pkg in loc) printf "%7d %s\n", loc[pkg], pkg | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'

# vet runs the analyzer fixture suite, the standard toolchain vet, and
# the project suite over the tree. The predata-vet binary is built once
# into bin/ so repeated runs (and the CI cache) skip recompilation; the
# fixture tests ride the same go test cache, so an unchanged analyzer
# costs nothing. See cmd/predata-vet and DESIGN.md §7 and §12.
vet: $(VET_BIN) vet-fixtures
	$(GO) vet ./...
	$(VET_BIN) ./...

# vet-fixtures runs the analyzers' // want fixture tests (analysistest
# harness, testdata/src/... corpora) and TestEveryAnalyzerBites, which
# edits real packages (one fault per analyzer) and type-checks them
# from source, without vetting the tree — the fast loop when developing
# an analyzer.
vet-fixtures:
	$(GO) test ./internal/analysis/...

$(VET_BIN): $(shell find cmd/predata-vet internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o $(VET_BIN) ./cmd/predata-vet

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# benchmark runs the repository benchmark (benchmark/README.md): four
# workloads over the data path, each checked against a naive reference,
# ~20 s apiece; results are appended to benchmark/out/results.json.
# benchmark-compare prints one row per (workload, metric) for two result
# sets and exits 1 when an end-to-end metric regressed past its bound:
#   make benchmark-compare A=benchmark/out/A.json B=benchmark/out/B.json
benchmark:
	$(GO) run ./benchmark -seed 1

benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# trace-test runs the flight-recorder suite: trace unit + fuzz-seed
# tests and the 64:1 trace-driven conformance tests, crash leg included
# (raced, shuffled; DESIGN.md §9). The recorder's overhead is a ledger
# reading (trace.overhead_ratio from go run ./benchmark -trace 1), not a
# gate here.
trace-test:
	$(GO) test -race -shuffle=on ./internal/trace/ -run . -count=1
	$(GO) test -race -shuffle=on -run 'TraceConformance|Prop' ./internal/predata/ ./internal/ops/

# elastic-soak runs the elasticity suite: autoscaler + xray driver
# units, the membership-diff table, the static≡elastic bit-identity
# test, the resize/handoff/conservation tests and elastic-vs-static
# provisioning (raced, shuffled — includes a crash injected during a
# grow step; DESIGN.md §11). CI's chaos-soak lane calls this and the
# three soak targets below.
elastic-soak:
	$(GO) test -race -shuffle=on -count=1 ./internal/elastic/ ./internal/apps/xray/
	$(GO) test -race -shuffle=on -count=1 -run 'Elastic|Reconfigure|Split|Resize|Membership' ./internal/predata/ ./internal/mpi/ ./internal/dataspaces/

# adversary-soak runs the adversarial-wire suite: chunk integrity under
# wire and source corruption, quorum fencing and heal across staging
# partitions, control-plane dup suppression (raced, shuffled;
# DESIGN.md §13).
adversary-soak:
	$(GO) test -race -shuffle=on -count=1 -run 'Adversary|Corrupt|Partition|Dup|Quorum|Fence|Heal|Seal|Integrity' ./internal/faults/ ./internal/fabric/ ./internal/predata/ ./internal/staging/ ./internal/trace/

# restart-soak runs the durability suite: WAL framing/recovery units
# and fuzz seeds, journal-backed restart (with and without a starved
# budget), whole-service crashall recovery (chunks re-pulled from the
# regions their writers hold until commit) and checkpoint truncation
# through the pipeline, the revive/drain fabric paths (raced, shuffled;
# DESIGN.md §14).
restart-soak:
	$(GO) test -race -shuffle=on -count=1 ./internal/wal/
	$(GO) test -race -shuffle=on -count=1 -run 'Restart|CrashAll|Checkpoint|Journal|Wal|WAL|Revive|Drain|DupState' ./internal/faults/ ./internal/fabric/ ./internal/predata/ ./internal/trace/ ./internal/dataspaces/

# serve-soak runs the multi-tenant streaming-service suite: the serve
# daemon units plus the query/tenant conformance scenarios (steady
# two-tenant, bursty xray, join/leave mid-stream, query storm under
# overload, each with a repeated-region cache sweep) and the cache
# key/staleness property tests — raced, shuffled, repeated
# (DESIGN.md §15). Query latency with and without the cache is a ledger
# reading (serve-mixed in go run ./benchmark), not a gate here.
serve-soak:
	$(GO) test -race -shuffle=on -count=2 ./internal/serve/
	$(GO) test -race -shuffle=on -count=1 -run 'FairShare|Starv|Subscribe|VerifyServe|Tenant' ./internal/flowctl/ ./internal/dataspaces/ ./internal/trace/ ./internal/queryapp/ ./cmd/predata-serve/

# evaluation regenerates every paper figure and ablation to stdout.
evaluation:
	$(GO) run ./cmd/predata-bench -experiment all

clean:
	rm -rf bin
