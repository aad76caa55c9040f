#!/bin/bash
# Regenerates every paper table/figure plus ablations and microbenchmarks.
# micro_simcore additionally emits BENCH_simcore.json (Google Benchmark
# JSON), the machine-readable record the CI perf gate checks with
# tools/check_bench_baseline.py.
cd "$(dirname "$0")" || exit 1

# A debug-build capture is not a perf reference: refuse outright rather
# than silently committing numbers that are 10-50x off. (Google Benchmark
# itself only warns via "library_build_type": "debug" in the JSON, which
# is easy to miss — the seed repo's baseline shipped exactly that way.)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt 2>/dev/null)
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "run_benches.sh: refusing to benchmark a '${build_type:-unknown}' build." >&2
    echo "Reconfigure with -DCMAKE_BUILD_TYPE=Release and rebuild first." >&2
    exit 1
    ;;
esac

# A loaded machine skews every wall-clock number. Warn (don't refuse:
# CI runners self-report nonzero load) when the 1-minute load average
# exceeds the core count.
cores=$(nproc 2>/dev/null || echo 1)
load=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
if [ "$(echo "$load $cores" | awk '{print ($1 > $2)}')" = "1" ]; then
  echo "run_benches.sh: WARNING: load average $load exceeds $cores core(s);" >&2
  echo "numbers captured now will be noisy. Prefer an idle machine." >&2
fi

for b in build/bench/*; do
  case "$(basename "$b")" in
    micro_simcore)
      "$b" --benchmark_out=BENCH_simcore.json --benchmark_out_format=json
      ;;
    *)
      "$b"
      ;;
  esac
done
