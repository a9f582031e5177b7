#!/usr/bin/env bash
# Build the dpbench CLI and this benchmark from source, then run one
# benchmark invocation. Run from the repository root; every argument is
# passed through, e.g.
#   bash perfbench/run.sh --workload grid-paper --seed 1 --seconds 20 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dpbench >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --dpbench "$CARGO_TARGET_DIR/release/dpbench" "$@"
