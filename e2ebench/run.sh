#!/usr/bin/env bash
# Builds the campaign binaries and the benchmark (release), then runs the
# benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload campaign_large --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result. Both builds share one
# target directory (CARGO_TARGET_DIR, default the workspace's `target`),
# which is how the benchmark finds the binaries it drives: beside its own
# executable.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}
case $target in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p nvmx_bench --bins >&2
cargo build --release --quiet --manifest-path "$root/e2ebench/Cargo.toml" >&2
exec "$target/release/nvmx-e2ebench" "$@"
