#!/usr/bin/env bash
# Build the optimatch CLI and the benchmark from source, then run one
# workload. Run from the root of an optimatch checkout:
#
#   bash perfbench/run.sh --workload cold-dir --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/core || ! -d crates/cli ]]; then
    echo "perfbench: run from the root of an optimatch checkout (crates/ not found)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p optimatch-cli --bin optimatch >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" run --optimatch "$target/release/optimatch" "$@"
