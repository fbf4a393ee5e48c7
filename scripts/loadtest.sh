#!/usr/bin/env bash
# Serving load test: spins up an in-process medvid-serve instance over a
# freshly mined corpus and drives concurrent clients against it, reporting
# throughput, p50/p99 latency and cache hit-rate for the flat scan vs the
# cluster-based hierarchical index.
#
# Usage: scripts/loadtest.sh [full]
#   full — larger corpus, more clients, more requests per client.
# Results (table + telemetry JSON) land in target/experiments/.

set -euo pipefail
cd "$(dirname "$0")/.."

# The run itself asserts the server's Metrics verb answered with a live
# rolling window, and that the clients' p50 sits within the wire-gap bound
# of the server's; re-check both marker lines here so a refactor that drops
# a probe fails the script, not just the artefact.
out="$(cargo run --release -p medvid-eval --bin exp_loadtest -- "${1:-}" | tee /dev/stderr)"
if ! grep -q "metrics verb: ok" <<<"$out"; then
    echo "loadtest: Metrics verb did not answer with a live window" >&2
    exit 1
fi
# Client-observed p50 must sit within a few ms of the server's own p50:
# anything more is the wire stalling persistent connections.
if ! grep -q "wire gap: ok" <<<"$out"; then
    echo "loadtest: client p50 is not within the wire-gap bound of the server p50" >&2
    exit 1
fi
