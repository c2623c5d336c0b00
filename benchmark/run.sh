#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the repo root.
# See README.md in this directory for the flags and the output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pathalg-benchmark" "$@"
