#!/usr/bin/env bash
# Fails unless every test-name filter matches at least one test.
#
# `cargo test ... -- <filter>` passes silently when <filter> matches nothing,
# so a renamed or moved test would drop out of a CI step unnoticed. Run this
# before such a step with the same cargo arguments and filters:
#
#   ci/require-tests.sh --release -p navft-nn --lib -- epilogue_tiers_match
set -euo pipefail

cargo_args=()
while [[ $# -gt 0 && $1 != -- ]]; do
    cargo_args+=("$1")
    shift
done
[[ $# -gt 0 ]] && shift
[[ $# -gt 0 ]] || { echo "usage: $0 <cargo test args> -- <filter>..." >&2; exit 2; }

for filter in "$@"; do
    listed=$(cargo test "${cargo_args[@]}" -- --list "$filter" | grep -c ': test$' || true)
    if [[ $listed -eq 0 ]]; then
        echo "error: test filter '$filter' matches no test (cargo test ${cargo_args[*]})" >&2
        exit 1
    fi
    echo "filter '$filter': $listed test(s)"
done
