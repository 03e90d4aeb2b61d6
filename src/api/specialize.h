#pragma once
// Engine specialization (DESIGN.md §10).
//
// The Scenario API decides, per scenario, whether trials run on the
// batched ring lane engine (sim/lane_engine.h) or the general scalar
// runtimes.  Eligibility is structural: a ring spec whose protocol has a
// devirtualized lane kernel (basic-lead, chang-roberts, alead-uni) running
// either the honest profile or one of the lane-served deviated profiles
// (basic-single, rushing — the two dominant resilience-sweep attacks,
// which map onto the lane register file as a member overlay).  Every other
// topology, sync included, runs on its scalar runtime.
//
// Routing is a pure function of the spec: engine=scalar pins the scalar
// runtime, engine=lanes demands a lane engine (and names why when the spec
// has none), and engine=auto runs every eligible spec on lanes.  Nothing
// about the rest of a submission enters the decision, so run_scenario,
// run_sweep and every fabric worker route a spec the same way.
//
// The decision is invisible in results: the lane engine is gated
// bit-identical to the scalar ring engine (ScenarioResults and transcript
// digests), so specialization is purely a throughput choice.

#include <optional>
#include <string>

#include "api/scenario.h"
#include "sim/lane_engine.h"

namespace fle {

/// The ring lane kernel for a registry protocol key, if one exists.
std::optional<LaneKernelId> lane_kernel_for(const std::string& protocol);

/// The lane register-file mapping for a registry deviation key, if one
/// exists (empty key = honest = LaneDeviationId::kNone).
std::optional<LaneDeviationId> lane_deviation_id(const std::string& deviation);

/// True when `spec` can execute on a lane engine bit-identically (see the
/// header comment for the structural rules): lane_ineligible_reason is
/// empty.
bool lane_eligible(const ScenarioSpec& spec);

/// Why `spec` is not lane-eligible, as one human-readable sentence (used
/// verbatim by route_to_lanes' engine=lanes rejection and by fle_sweep's
/// per-line pre-validation).  Empty string when the spec IS eligible.
std::string lane_ineligible_reason(const ScenarioSpec& spec);

/// The routing decision for `spec`.  Throws std::invalid_argument naming
/// ScenarioSpec.engine (with the lane_ineligible_reason) when engine=lanes
/// is forced on an ineligible spec.
bool route_to_lanes(const ScenarioSpec& spec);

}  // namespace fle
