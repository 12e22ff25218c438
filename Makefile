.PHONY: check build test bench docs fuzz verify-api ci ci-check ci-race ci-bench-smoke ci-docs

# Tier-1 gate: build + vet + full test suite under the race detector
# (scripts/check.sh also runs the docs checks, the robustness gate
# below, and the loopback smokes).
check:
	sh scripts/check.sh

# Robustness-regression gate: an uncached one-worker campaign and a
# cache-accelerated one on every CPU, each diffed against the checked-in
# robust-API baseline (testdata/robust_api_baseline.xml).
# Exits non-zero when a function's robustness regressed.
verify-api:
	sh scripts/verify-api.sh

# The CI matrix (.github/workflows/ci.yml) runs one ci-* target per job;
# `make ci` chains all four so CI is reproducible locally in one command.
ci: ci-check ci-race ci-bench-smoke ci-docs

# Build + vet + tests, the robustness gate, both end-to-end smokes
# (distributed sweep and shared-registry warm sweep), and the short
# fuzzing sessions.
ci-check:
	go build ./...
	go vet ./...
	go test ./...
	sh scripts/verify-api.sh
	sh scripts/smoke-distributed.sh
	sh scripts/smoke-registry.sh
	$(MAKE) fuzz

# Every native fuzz target for 10 s each (go test fuzzes one target per
# run). Plain `go test` already runs their checked-in seed corpora; a
# failing input lands in the package's testdata/fuzz directory.
# Minimizing a new interesting input is bounded to 100 runs: unbounded,
# the fuzzer minimizes each one for up to 60 s with a search quadratic in
# its length, and a few inputs of a few hundred bytes kept both workers
# busy for most of a session.
FUZZ = go test -run '^$$' -fuzztime 10s -fuzzminimizetime 100x
fuzz:
	$(FUZZ) -fuzz '^FuzzKind$$' ./internal/xmlrep
	$(FUZZ) -fuzz '^FuzzProfileDecode$$' ./internal/xmlrep
	$(FUZZ) -fuzz '^FuzzProfileEncode$$' ./internal/xmlrep
	$(FUZZ) -fuzz '^FuzzFrame$$' ./internal/collect
	$(FUZZ) -fuzz '^FuzzSpanAccess$$' ./internal/cmem
	$(FUZZ) -fuzz '^FuzzParseChaos$$' ./internal/cmem
	$(FUZZ) -fuzz '^FuzzParseHeader$$' ./internal/cheader
	$(FUZZ) -fuzz '^FuzzPolicyApply$$' ./internal/wrappers

# Full suite under the race detector, plus the chaos-soak smoke: a
# bounded contained soak of the streaming rootd daemon that must
# survive with a nonzero recovery-policy hit count (its logs land in
# HEALERS_ARTIFACT_DIR on failure); bounded so a deadlocked test fails
# the job instead of hanging it.
ci-race:
	go test -race -timeout 10m ./...
	sh scripts/smoke-soak.sh

# One iteration of every benchmark in every package proves the measured
# paths still run; the benchmark harness, its own module, is vetted
# against this checkout first.
ci-bench-smoke:
	(cd perfbench && GOPROXY=off go vet .)
	go test -run '^$$' -bench . -benchtime=1x ./...

# Documentation hygiene as its own job: flag/README agreement, godoc
# coverage, the test-only surface scan, comment placement (vet), and
# repo-wide gofmt.
ci-docs: docs
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

# Documentation hygiene: flags and README.md must agree in both
# directions, the embedding API's exported surface must be godoc'd
# (audit script plus go vet, which also proofreads comment placement),
# no exported identifier under internal/ may be called from tests alone
# (scripts/testonly, with its keep list), and the examples must be
# gofmt-clean.
docs:
	sh scripts/check-docs.sh
	sh scripts/check-godoc.sh
	go run ./scripts/testonly
	go vet ./internal/wrappers ./internal/collect
	@fmt=$$(gofmt -l examples); if [ -n "$$fmt" ]; then \
		echo "gofmt needed in examples:"; echo "$$fmt"; exit 1; fi

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem .
