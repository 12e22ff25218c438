#!/bin/sh
# Robustness-regression gate: derive the robust API fresh and diff it
# against the checked-in baseline, twice: once uncached on one worker
# (a full libc sweep takes about a tenth of a second), and once on one
# worker per CPU, accelerated by the campaign cache under .cache/. Exit 3
# means a function's weakest robust type got weaker or gained a crash
# failure; regenerate the baseline deliberately with
#   go run ./cmd/healers-inject -write-baseline testdata/robust_api_baseline.xml
# only when the change is intended.
set -eu

cd "$(dirname "$0")/.."

go run ./cmd/healers-inject -j 1 \
    -verify-baseline testdata/robust_api_baseline.xml

mkdir -p .cache
go run ./cmd/healers-inject -j 0 \
    -cache .cache/campaign-cache.xml \
    -verify-baseline testdata/robust_api_baseline.xml
