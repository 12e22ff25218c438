#!/bin/sh
# Tier-1 gate: build everything, vet everything, and run the full test
# suite under the race detector. CI and pre-commit both call this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The benchmark harness is its own module, so ./... never compiles it;
# vet it against this checkout's packages, without the network.
(cd perfbench && GOPROXY=off go vet .)
go test -race ./...

# Documentation hygiene: flags and README must agree in both
# directions, the embedding API's exported surface must be godoc'd, no
# exported identifier under internal/ may be called from tests alone,
# and the whole repo must be gofmt-clean.
sh scripts/check-docs.sh
sh scripts/check-godoc.sh
go run ./scripts/testonly
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed:" >&2
    echo "$fmt" >&2
    exit 1
fi

# Robustness-regression gate: the derived robust API must not be weaker
# than the checked-in baseline, from an uncached one-worker sweep and
# from a cache-accelerated one on every CPU.
sh scripts/verify-api.sh

# Distributed-campaign smoke: a 2-worker loopback sweep must render
# byte-identical robust-API XML to a sequential run.
sh scripts/smoke-distributed.sh

# Shared-registry smoke: a sweep warmed from a collectd-hosted registry
# must probe nothing and render byte-identical robust-API XML to the
# cold run that populated it.
sh scripts/smoke-registry.sh

# Chaos-soak smoke: the contained rootd daemon must survive a bounded
# streaming soak under sustained fault injection with a nonzero
# recovery-policy hit count.
sh scripts/smoke-soak.sh

# Smoke-run the collect ingest benchmarks (upload path, bounded store,
# both aggregation paths, histogram merge), the chaos-survival and
# chaos-soak benchmarks (the containment wrapper keeping a
# chaos-stricken workload and a streaming daemon alive end to end), and
# the capture-contention benchmark (its post-run check asserts the
# shared counters stayed exact under parallel load): one iteration
# each proves the paths still work.
go test -run '^$' -bench 'BenchmarkCollect|BenchmarkChaosSurvival|BenchmarkChaosSoak|BenchmarkCaptureContention' -benchtime=1x .
