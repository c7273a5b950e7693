#!/usr/bin/env bash
# Build the e2e benchmark from source (first run only; later runs are a
# no-op check) and run one workload:
#
#   bash bench/e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr and
# .bench_build/e2e; `--trace 1` writes the spans to
# .bench_build/e2e/trace-<workload>-<seed>.json. The last line of stdout
# is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"

workload="" seed="" seconds="20" trace="0"
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        *) echo "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>" >&2
           exit 2 ;;
    esac
done

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e -j "$jobs" >&2

args=(--workload "$workload" --seed "$seed" --seconds "$seconds")
if [ "$trace" = "1" ]; then
    args+=(--trace "$build/trace-$workload-$seed.json")
fi
exec "$build/e2e" "${args[@]}"
