// Shared plumbing for the figure/table regeneration binaries.
//
// Every bench honors EPIAGG_QUICK:
//   unset (default) — the paper's parameters (N up to 100 000, 50 runs)
//   EPIAGG_QUICK=1  — ~10x smaller, for smoke runs, ctest and CI
// Any other value runs the full scale.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/cli.hpp"

namespace epiagg::benchutil {

/// True when EPIAGG_QUICK=1. The environment is read once and cached:
/// scaled() sits inside bench parameter lists and sweep loops, and getenv
/// walks the environ array on every call.
inline bool quick_mode() {
  static const bool quick = [] {
    const char* flag = std::getenv("EPIAGG_QUICK");
    return flag != nullptr && std::strcmp(flag, "1") == 0;
  }();
  return quick;
}

/// Picks the full or quick variant of a parameter.
template <typename T>
T scaled(T full, T quick) {
  return quick_mode() ? quick : full;
}

/// Parses the one flag every SweepRunner-driven bench supports — --threads N
/// (0, the default, means hardware_concurrency) — and rejects anything else
/// with a usage hint (exits 1 so typos never silently run the default).
inline std::size_t threads_flag(int argc, const char* const* argv) {
  const CliArgs args(argc, argv);
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (0 = all cores), got %lld\n",
                 static_cast<long long>(threads));
    std::exit(1);
  }
  for (const auto& flag : args.unconsumed()) {
    std::fprintf(stderr, "unknown flag --%s (supported: --threads)\n",
                 flag.c_str());
    std::exit(1);
  }
  return static_cast<std::size_t>(threads);
}

/// The ONLY sanctioned wall-clock access in the whole tree. Simulation code
/// must never read real time (simulated time comes from the event engine and
/// cycle counters); benches may measure wall time, but only through this
/// helper so `scripts/lint_determinism.py` can allowlist one named symbol
/// instead of whole files. Construction starts the clock.
class wall_timer {
public:
  wall_timer() : started_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point started_;
};

/// A paper bench's answer gate: check() prints one claim about the bench's
/// output as one line (a printf format showing the measured value and its
/// band); finish() prints the verdict and returns main()'s exit code.
class ShapeCheck {
public:
  [[gnu::format(printf, 3, 4)]] void check(bool holds, const char* claim, ...) {
    if (claims_ == 0) std::printf("\n");
    std::printf("  %-4s ", holds ? "ok" : "MISS");
    std::va_list args;
    va_start(args, claim);
    std::vprintf(claim, args);
    va_end(args);
    std::printf("\n");
    ++claims_;
    if (!holds) ++misses_;
  }

  /// 0 when every claim held, 1 otherwise.
  [[nodiscard]] int finish() const {
    const bool pass = claims_ > 0 && misses_ == 0;
    std::printf("shape check: %s — %zu of %zu claims hold\n", pass ? "PASS" : "FAIL",
                claims_ - misses_, claims_);
    return pass ? 0 : 1;
  }

private:
  std::size_t claims_ = 0, misses_ = 0;
};

/// Prints the standard bench header with reproduction context.
inline void print_header(const char* experiment_id, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("paper: Jelasity & Montresor, \"Epidemic-Style Proactive\n");
  std::printf("       Aggregation in Large Overlay Networks\", ICDCS 2004\n");
  std::printf("scale: %s\n", quick_mode()
                                 ? "quick (EPIAGG_QUICK=1)"
                                 : "full (set EPIAGG_QUICK=1 for a fast pass)");
  std::printf("==============================================================\n");
}

}  // namespace epiagg::benchutil
