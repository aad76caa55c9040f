// Shared helpers for the reproduction benches.
//
// Every bench binary regenerates one of the paper's tables or figures and
// prints paper-reported values next to the simulator's measurements so the
// comparison can be read (and scraped into EXPERIMENTS.md) directly.
//
// Environment knobs:
//   PFSC_REPS    — override the repetition count (default: per-bench, usually
//                  the paper's five).
//   PFSC_QUICK   — if set, run a single repetition of each point (CI smoke).
//   PFSC_THREADS — worker threads for the sweep runner (default: hardware
//                  concurrency). Results are identical for any value.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/stats.hpp"
#include "support/table.hpp"

namespace pfsc::bench {

inline unsigned repetitions(unsigned default_reps) {
  if (const char* quick = std::getenv("PFSC_QUICK"); quick && *quick) return 1;
  if (const char* reps = std::getenv("PFSC_REPS"); reps && *reps) {
    const long v = std::strtol(reps, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  return default_reps;
}

/// Thread count for ParallelRunner: PFSC_THREADS, else 0 (hardware
/// concurrency). The runner's output is thread-count-invariant, so this is
/// purely a wall-clock knob.
inline unsigned threads() {
  if (const char* env = std::getenv("PFSC_THREADS"); env && *env) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 0) return static_cast<unsigned>(v);
  }
  return 0;
}

inline void banner(const std::string& id, const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("(paper: Wright & Jarvis, \"Quantifying the Effects of "
              "Contention on Parallel File Systems\", IPDPSW'15)\n");
  std::printf("==============================================================\n");
}

inline std::string fmt_ci(const ConfidenceInterval& ci, int precision = 0) {
  return fmt_double(ci.mean, precision) + " (" + fmt_double(ci.lower, precision) +
         ", " + fmt_double(ci.upper, precision) + ")";
}

/// Ratio printed as "x12.3".
inline std::string fmt_ratio(double num, double den) {
  if (den <= 0.0) return "n/a";
  std::string out(1, 'x');
  return out += fmt_double(num / den, 1);
}

}  // namespace pfsc::bench
