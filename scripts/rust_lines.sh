#!/usr/bin/env bash
# Print the Rust line count that CHANGES.md records: every `*.rs` file
# outside `target/` and `hostbench/`, `vendor/` included.
#
#   scripts/rust_lines.sh               # the whole workspace
#   scripts/rust_lines.sh crates/simcore/src crates/telemetry/src
#
# Directories are relative to the repository root; with several, each
# gets its own line.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" \( -name target -o -path ./hostbench -o -path ./.git \) -prune \
        -o -name '*.rs' -type f -print0 | xargs -0 cat | wc -l
}

if [ $# -eq 0 ]; then
    count .
else
    for dir in "$@"; do
        echo "$(count "$dir") $dir"
    done
fi
