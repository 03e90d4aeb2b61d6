#pragma once
// Spans around the benchmark's calls into each layer of the library.
//
// A span is (name, parent, request, start, end); names are
// "<layer>.<what>" with the layer one of the repository's modules
// (verify, api, sim, trees, fabric, store) or "bench" for the benchmark's
// own work.  Spans nest strictly on the one thread that records them, so
// a span's self time — its duration minus its children's — never counts
// an instant twice, and the self times of all spans plus the time no span
// covers add up to the run's wall time.  Spans live in memory and are
// written out once, after the run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  const char* name = "";      ///< a string literal: recording allocates nothing
  int parent = -1;            ///< index of the enclosing span, -1 for a root
  std::uint32_t request = 0;  ///< shared by a root span and all its descendants
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when tracing is off.
  /// `name` must outlive the tracer (pass a literal).
  int open(const char* name);
  /// Closes span `index` (must be the innermost open one) and returns its
  /// duration in seconds; 0 for index -1.
  double close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self seconds summed per layer (the name's prefix before the first '.').
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// Writes every span as JSON (seconds relative to `origin`).
  void write_json(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint32_t next_request_ = 0;
};

/// RAII span.  close() may be called early to read the duration.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double close() {
    const double seconds = tracer_.close(index_);
    index_ = -1;
    return seconds;
  }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
