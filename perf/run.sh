#!/usr/bin/env bash
# Builds rewire-perf from source (offline, release) and runs it with the
# given arguments, pinned to CPU 1 when `taskset` exists and that CPU is
# available. The build goes to $CARGO_TARGET_DIR, or perf/target.
#
#   bash perf/run.sh --workload pf-4x4 --seed 1 --seconds 20 --trace 0
#   bash perf/run.sh suite --out perf/out/a
#   bash perf/run.sh compare perf/out/a/results.json perf/out/b/results.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/rewire-perf"

if command -v taskset >/dev/null 2>&1 && taskset -c 1 true 2>/dev/null; then
    exec taskset -c 1 "$bin" "$@"
fi
exec "$bin" "$@"
