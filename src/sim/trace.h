#pragma once
// Synchronization-gap tracing (Lemmas D.3/D.5, Section 6).
//
// The resilience proofs hinge on how far apart processors' send counters can
// drift: A-LEADuni keeps every no-fail execution 2k^2-synchronized, while
// PhaseAsyncLead's phase-validation mechanism keeps executions
// O(k)-synchronized.  SyncTrace watches a subset of processors (typically
// the coalition) and records the gap max_i Sent_i - min_i Sent_i over time.

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/engine.h"

namespace fle {

/// SyncTrace stays on the observer interface by design: the gap series is a
/// function of the per-processor *sent counters*, a side channel the
/// delivery observer carries but the transcript event stream deliberately
/// omits (events describe the execution, not engine bookkeeping).
class SyncTrace {
 public:
  /// Watch the given processors (empty = watch everybody).  `sample_every`
  /// controls the resolution of the recorded series.
  explicit SyncTrace(std::vector<ProcessorId> watch, std::uint64_t sample_every = 16);

  /// Observer to install in EngineOptions::observer.  The trace object must
  /// outlive the engine run.
  [[nodiscard]] DeliveryObserver observer();

  [[nodiscard]] std::uint64_t max_gap() const { return max_gap_; }
  /// Gap sampled every `sample_every` deliveries.
  [[nodiscard]] const std::vector<std::uint64_t>& series() const { return series_; }

  void reset();

 private:
  void on_delivery(std::uint64_t step, std::span<const std::uint64_t> sent);

  std::vector<ProcessorId> watch_;
  std::uint64_t sample_every_;
  std::uint64_t max_gap_ = 0;
  std::vector<std::uint64_t> series_;
};

}  // namespace fle
