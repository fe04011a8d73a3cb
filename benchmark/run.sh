#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. Every argument goes to the program: see README.md, or
#   benchmark/run.sh --workload engine-deep --seed 42 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sequin-benchmark" "$@"
