#pragma once
// The sweep layer: many scenarios, one executor submission.
//
// Every driver in this repo — benches, examples, the conformance suite —
// is a sweep of ScenarioSpecs.  run_scenario executes one spec's trials on
// the shared executor; run_sweep submits EVERY scenario's trial chunks to
// that executor at once, so workers that finish a small scenario (an n=8
// uniformity check, a fuzz spec) immediately steal chunks from whichever
// scenario still has work.  Wall time becomes max-of-chains instead of
// sum-of-scenarios, and per-worker engine workspaces are reused across
// scenarios with the same (topology family, n) shape.
//
// Determinism: each scenario's result is reduced from its own trial slots
// in trial order, and per-trial seeds depend only on (scenario base seed,
// global trial index) — so run_sweep(specs)[i] is bit-identical to
// run_scenario(specs[i]) for every worker count, however the executor
// splits the trials into chunks (asserted by tests/test_sweep.cpp over the
// e01–e15 bench specs).

#include <cstdint>
#include <string>
#include <vector>

#include "api/scenario.h"

namespace fle {

/// An ordered list of scenarios executed as one batch.  Per-spec `threads`
/// fields are ignored — the sweep's worker count governs the whole batch.
struct SweepSpec {
  std::vector<ScenarioSpec> scenarios;
  int threads = 0;  ///< executor workers for the batch (0 = hardware)

  SweepSpec& add(ScenarioSpec spec) {
    scenarios.push_back(std::move(spec));
    return *this;
  }
};

/// Cartesian grid helper: expands a base spec over value lists.  Empty axes
/// contribute the base spec's own value; non-empty axes multiply.  Order is
/// row-major in declaration order (protocols × deviations × n × k × seeds),
/// so the expansion is stable for golden tests.
struct SweepGrid {
  ScenarioSpec base;
  std::vector<std::string> protocols;
  std::vector<std::string> deviations;      ///< "" entries mean honest
  std::vector<int> n_values;
  std::vector<int> coalition_ks;            ///< rewrites base.coalition.k
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] std::vector<ScenarioSpec> expand() const;
  [[nodiscard]] SweepSpec as_sweep(int threads = 0) const;
};

/// Runs every scenario of the sweep on one shared executor submission and
/// returns the per-scenario results, in sweep order.  Each result is
/// bit-identical to a standalone run_scenario of the same spec.  Throws
/// std::invalid_argument (naming the spec index) if any spec fails
/// validation; nothing executes in that case.
///
/// When a SweepBackend is installed (set_sweep_backend below) the whole
/// sweep is routed through it instead of the in-process executor; the
/// backend contract is the same bit-identical result vector, so callers
/// never observe the difference.
std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep);

/// A pluggable execution substrate behind run_sweep.  The in-process
/// executor (api/parallel.h) is the default; the fabric's RemoteExecutor
/// (src/fabric/driver.h) dispatches the same sweeps to fle_worker
/// processes over TCP.  Implementations MUST return results bit-identical
/// to the in-process run — the determinism contract is the interface.
class SweepBackend {
 public:
  virtual ~SweepBackend() = default;
  virtual std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep) = 0;
};

/// Installs the process-wide backend run_sweep routes through (nullptr
/// restores the in-process executor).  Returns the previous backend; the
/// caller owns lifetimes — the installed backend must outlive every
/// run_sweep call made while it is current.
SweepBackend* set_sweep_backend(SweepBackend* backend) noexcept;

/// The currently installed backend, or nullptr for in-process execution.
SweepBackend* sweep_backend() noexcept;

}  // namespace fle
