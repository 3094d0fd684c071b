#!/usr/bin/env bash
# Builds the release `ocqa` server and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash wirebench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p ocqa-cli >&2
CARGO_TARGET_DIR="$target" cargo build --release --quiet \
  --manifest-path wirebench/Cargo.toml >&2
OCQA_BIN="$target/release/ocqa" exec "$target/release/wirebench" "$@"
