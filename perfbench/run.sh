#!/usr/bin/env bash
# Builds the benchmark and the trace checker beside it, then runs the
# benchmark with the given arguments (see src/main.rs for the flags).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
