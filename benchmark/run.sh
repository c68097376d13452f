#!/usr/bin/env bash
# One command builds and runs the benchmark:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# --trace 0 runs `sea-bench-e2e` (end-to-end metrics, tracing off),
# --trace 1 runs `sea-bench-layers` (the traced run, per-layer metrics).
# Each prints, as its last line of standard output, one JSON object with
# `correct`, `attempted`, `failed` and `metrics`. Only the binary that is
# asked for is built, so a probe broken by API drift cannot stop the
# end-to-end numbers from compiling.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"

trace=0
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
case "$trace" in
  0) bin=sea-bench-e2e ;;
  1) bin=sea-bench-layers ;;
  *) echo "run.sh: --trace must be 0 or 1" >&2; exit 2 ;;
esac

# A relative CARGO_TARGET_DIR is relative to where the caller stood: the
# repository root, one level up from here.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) if [ -n "${CARGO_TARGET_DIR:-}" ]; then target="../$target"; fi ;;
esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --bin "$bin" >&2
exec "$target/release/$bin" --contract "${args[@]}"
