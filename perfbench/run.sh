#!/usr/bin/env bash
# Build the program (aalwines, aalwinesd) and this benchmark in release
# from the sources around this directory, then run one benchmark case.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
unset AALWINES_SAT_THREADS
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p aalwines-suite -p aalwinesd --bins >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/aalwinesd" "$@"
