#!/usr/bin/env bash
# durabench launcher: builds the benchmark and the mlss_serve binary it
# drives from this checkout's sources, then runs one workload.
#
#   bash durabench/run.sh --workload solve_rare|serve_mix|async_race \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); all cargo chatter goes to stderr, so the last
# line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p mlss-serve --bin mlss_serve >&2

DURABENCH_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export DURABENCH_REV

exec "$CARGO_TARGET_DIR/release/durabench" "$@"
