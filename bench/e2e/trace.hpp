// In-memory span recorder for the traced run of the end-to-end benchmark.
//
// Spans are opened and closed by the benchmark's own code around calls into
// one layer's public functions; nothing inside the library is instrumented.
// Each span keeps {id, parent, name, start, end} plus the number of
// operations it covered, so run.py can turn a span into a cost per
// operation and compute self time (duration minus the time covered by its
// children). Spans stay in memory and are written once, at exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace epiagg::e2e {

class Tracer {
public:
  /// Opens a span as a child of the innermost open span (0 = root).
  void begin(std::string name) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    const std::uint32_t parent = open_.empty() ? 0 : open_.back();
    spans_.push_back(Span{id, parent, std::move(name), clock_.seconds(), 0.0, 0});
    open_.push_back(id);
  }

  /// Closes the innermost open span, recording the operations it covered.
  void end(std::uint64_t ops = 0) {
    Span& span = spans_[open_.back() - 1];
    span.end = clock_.seconds();
    span.ops = ops;
    open_.pop_back();
  }

  /// Writes every span as one JSON document. Returns false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"spans\": [");
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      std::fprintf(out,
                   "%s\n{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                   "\"start\": %.9f, \"end\": %.9f, \"ops\": %llu}",
                   k == 0 ? "" : ",", s.id, s.parent, s.name.c_str(), s.start,
                   s.end, static_cast<unsigned long long>(s.ops));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

private:
  struct Span {
    std::uint32_t id;
    std::uint32_t parent;
    std::string name;
    double start;  // seconds since the tracer was created
    double end;
    std::uint64_t ops;
  };

  benchutil::wall_timer clock_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Opens a span for the lifetime of the guard; `ops` may be set before it
/// closes. A null tracer makes the guard do nothing, so timed and traced
/// runs share one code path.
class SpanGuard {
public:
  SpanGuard(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(std::move(name));
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->end(ops);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  std::uint64_t ops = 0;

private:
  Tracer* tracer_;
};

}  // namespace epiagg::e2e
