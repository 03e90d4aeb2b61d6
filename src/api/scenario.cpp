#include "api/scenario.h"

#include <chrono>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "api/parallel.h"
#include "api/registry.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "attacks/deviation.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"
#include "sim/threaded_runtime.h"

namespace fle {

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kRing:
      return "ring";
    case TopologyKind::kGraph:
      return "graph";
    case TopologyKind::kTree:
      return "tree";
    case TopologyKind::kSync:
      return "sync";
    case TopologyKind::kThreaded:
      return "threaded";
    case TopologyKind::kFullInfo:
      return "fullinfo";
  }
  return "unknown";
}

std::optional<TopologyKind> parse_topology(const std::string& name) {
  if (name == "ring") return TopologyKind::kRing;
  if (name == "graph") return TopologyKind::kGraph;
  if (name == "tree") return TopologyKind::kTree;
  if (name == "sync") return TopologyKind::kSync;
  if (name == "threaded") return TopologyKind::kThreaded;
  if (name == "fullinfo") return TopologyKind::kFullInfo;
  return std::nullopt;
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto:
      return "auto";
    case EngineKind::kScalar:
      return "scalar";
    case EngineKind::kLanes:
      return "lanes";
  }
  return "unknown";
}

std::optional<EngineKind> parse_engine(const std::string& name) {
  if (name == "auto") return EngineKind::kAuto;
  if (name == "scalar") return EngineKind::kScalar;
  if (name == "lanes") return EngineKind::kLanes;
  return std::nullopt;
}

const char* to_string(RngKind kind) {
  switch (kind) {
    case RngKind::kXoshiro:
      return "xoshiro";
    case RngKind::kCtr:
      return "ctr";
  }
  return "unknown";
}

std::optional<RngKind> parse_rng(const std::string& name) {
  if (name == "xoshiro") return RngKind::kXoshiro;
  if (name == "ctr") return RngKind::kCtr;
  return std::nullopt;
}

const char* to_string(GraphAdjacency adjacency) {
  switch (adjacency) {
    case GraphAdjacency::kComplete:
      return "complete";
    case GraphAdjacency::kDirectedRing:
      return "directed-ring";
    case GraphAdjacency::kStar:
      return "star";
  }
  return "unknown";
}

std::optional<GraphAdjacency> parse_adjacency(const std::string& name) {
  if (name == "complete") return GraphAdjacency::kComplete;
  if (name == "directed-ring") return GraphAdjacency::kDirectedRing;
  if (name == "star") return GraphAdjacency::kStar;
  return std::nullopt;
}

std::vector<std::vector<char>> build_adjacency(GraphAdjacency adjacency, int n) {
  if (adjacency == GraphAdjacency::kComplete) return {};
  std::vector<std::vector<char>> matrix(static_cast<std::size_t>(n),
                                        std::vector<char>(static_cast<std::size_t>(n), 0));
  switch (adjacency) {
    case GraphAdjacency::kComplete:
      break;  // unreachable
    case GraphAdjacency::kDirectedRing:
      for (ProcessorId u = 0; u < n; ++u) {
        matrix[static_cast<std::size_t>(u)][static_cast<std::size_t>(ring_succ(u, n))] = 1;
      }
      break;
    case GraphAdjacency::kStar:
      for (ProcessorId v = 1; v < n; ++v) {
        matrix[0][static_cast<std::size_t>(v)] = 1;
        matrix[static_cast<std::size_t>(v)][0] = 1;
      }
      break;
  }
  return matrix;
}

CoalitionSpec CoalitionSpec::consecutive(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kConsecutive;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::equally_spaced(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kEquallySpaced;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::bernoulli(double density, std::uint64_t placement_seed) {
  CoalitionSpec spec;
  spec.placement = Placement::kBernoulli;
  spec.density = density;
  spec.placement_seed = placement_seed;
  return spec;
}

CoalitionSpec CoalitionSpec::cubic_staircase(int k, ProcessorId first) {
  CoalitionSpec spec;
  spec.placement = Placement::kCubicStaircase;
  spec.k = k;
  spec.first = first;
  return spec;
}

CoalitionSpec CoalitionSpec::custom(std::vector<ProcessorId> members) {
  CoalitionSpec spec;
  spec.placement = Placement::kCustom;
  spec.members = std::move(members);
  return spec;
}

namespace {

/// Field-naming validation for the k-parameterized placements: a coalition
/// must leave at least one honest processor, so 0 < k < n.
void require_coalition_k(const CoalitionSpec& spec, int n) {
  if (spec.k <= 0 || spec.k >= n) {
    throw std::invalid_argument("ScenarioSpec.coalition.k must satisfy 0 < k < n (got k = " +
                                std::to_string(spec.k) + ", n = " + std::to_string(n) + ")");
  }
}

}  // namespace

std::optional<Coalition> build_coalition(const CoalitionSpec& spec, int n) {
  switch (spec.placement) {
    case CoalitionSpec::Placement::kDefault:
      return std::nullopt;
    case CoalitionSpec::Placement::kConsecutive:
      require_coalition_k(spec, n);
      return Coalition::consecutive(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kEquallySpaced:
      require_coalition_k(spec, n);
      return Coalition::equally_spaced(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kBernoulli:
      if (spec.density < 0.0 || spec.density > 1.0) {
        throw std::invalid_argument(
            "ScenarioSpec.coalition.density must be a probability in [0, 1] (got " +
            std::to_string(spec.density) + ")");
      }
      return Coalition::bernoulli(n, spec.density, spec.placement_seed);
    case CoalitionSpec::Placement::kCubicStaircase:
      require_coalition_k(spec, n);
      return Coalition::cubic_staircase(n, spec.k, spec.first);
    case CoalitionSpec::Placement::kCustom:
      for (std::size_t i = 0; i < spec.members.size(); ++i) {
        const ProcessorId member = spec.members[i];
        if (member < 0 || member >= n) {
          throw std::invalid_argument(
              "ScenarioSpec.coalition.members[" + std::to_string(i) + "] = " +
              std::to_string(member) + " out of range [0, n) with n = " + std::to_string(n));
        }
      }
      return Coalition(n, spec.members);
  }
  return std::nullopt;
}

TrialWindow scenario_trial_window(const ScenarioSpec& spec) {
  if (spec.trial_offset > spec.trials) {
    throw std::invalid_argument(
        "ScenarioSpec.trial_offset = " + std::to_string(spec.trial_offset) +
        " exceeds trials = " + std::to_string(spec.trials));
  }
  const std::size_t rest = spec.trials - spec.trial_offset;
  if (spec.trial_count == 0) return {spec.trial_offset, rest};
  if (spec.trial_count > rest) {
    throw std::invalid_argument(
        "ScenarioSpec.trial_count = " + std::to_string(spec.trial_count) +
        " overruns trials = " + std::to_string(spec.trials) +
        " (trial_offset = " + std::to_string(spec.trial_offset) + ")");
  }
  return {spec.trial_offset, spec.trial_count};
}

void ScenarioResult::merge(const ScenarioResult& other) { merge(ScenarioResult(other)); }

void ScenarioResult::merge(ScenarioResult&& other) {
  const auto mismatch = [](const std::string& field, const std::string& a,
                           const std::string& b) {
    throw std::invalid_argument("ScenarioResult.merge: " + field + " mismatch ('" + a +
                                "' vs '" + b + "')");
  };
  if (protocol_name != other.protocol_name) {
    mismatch("protocol_name", protocol_name, other.protocol_name);
  }
  if (deviation_name != other.deviation_name) {
    mismatch("deviation_name", deviation_name, other.deviation_name);
  }
  if (outcomes.domain() != other.outcomes.domain()) {
    mismatch("outcomes domain (n)", std::to_string(outcomes.domain()),
             std::to_string(other.outcomes.domain()));
  }
  if (base_seed != other.base_seed) {
    mismatch("base_seed", std::to_string(base_seed), std::to_string(other.base_seed));
  }
  if (spec_trials != other.spec_trials) {
    mismatch("spec_trials", std::to_string(spec_trials), std::to_string(other.spec_trials));
  }
  if (outcomes_recorded != other.outcomes_recorded) {
    mismatch("outcomes_recorded", outcomes_recorded ? "true" : "false",
             other.outcomes_recorded ? "true" : "false");
  }
  if (transcripts_recorded != other.transcripts_recorded) {
    mismatch("transcripts_recorded", transcripts_recorded ? "true" : "false",
             other.transcripts_recorded ? "true" : "false");
  }
  if (trial_offset + trials != other.trial_offset) {
    throw std::invalid_argument(
        "ScenarioResult.merge: shards are not contiguous — this result covers trials [" +
        std::to_string(trial_offset) + ", " + std::to_string(trial_offset + trials) +
        ") but other.trial_offset = " + std::to_string(other.trial_offset) +
        " (merge shards in trial_offset order)");
  }

  outcomes.merge(other.outcomes);
  trials += other.trials;
  total_messages += other.total_messages;
  max_messages = std::max(max_messages, other.max_messages);
  total_sync_gap += other.total_sync_gap;
  max_sync_gap = std::max(max_sync_gap, other.max_sync_gap);
  max_rounds = std::max(max_rounds, other.max_rounds);
  wall_seconds += other.wall_seconds;
  per_trial.insert(per_trial.end(), other.per_trial.begin(), other.per_trial.end());
  per_trial_transcript.insert(per_trial_transcript.end(),
                              std::make_move_iterator(other.per_trial_transcript.begin()),
                              std::make_move_iterator(other.per_trial_transcript.end()));
  if (trials > 0) {
    mean_messages = static_cast<double>(total_messages) / static_cast<double>(trials);
    mean_sync_gap = static_cast<double>(total_sync_gap) / static_cast<double>(trials);
  }
}

namespace {

/// Per-trial measurements every runtime can produce (unused fields stay 0).
struct TrialStats {
  Outcome outcome;                ///< default-constructed = FAIL
  std::uint64_t messages = 0;     ///< total sends
  std::uint64_t sync_gap = 0;     ///< ring engine synchronization gap
  int rounds = 0;                 ///< sync engine rounds
};

/// One scenario, prepared for the executor: normalized spec copy, trial
/// window, per-trial slots, the executor batch (whose body points back at
/// this job, so the job must stay put while it runs), and the result
/// skeleton with display names resolved.  run_scenario builds one;
/// run_sweep builds many and submits them together.
struct ScenarioJob {
  ScenarioSpec spec;
  TrialWindow window;
  ScenarioResult result{1};
  /// Per-trial slots indexed by local trial (global - window.first); a
  /// body writes only the slots of the chunk it was handed.
  std::vector<TrialStats> stats;
  /// Per-trial transcript slots (record_transcripts only), indexed like
  /// stats.
  std::vector<ExecutionTranscript> transcripts;
  Executor::Batch batch;

  /// Seed of local trial `t`: keyed by its global index, so a window seeds
  /// exactly like the same trials of the monolithic run.
  [[nodiscard]] std::uint64_t trial_seed(std::size_t t) const {
    return scenario_trial_seed(spec.seed, window.first + t);
  }

  /// The transcript slot for local trial `t`, or nullptr when the spec
  /// does not record.  The slot is cleared for the trial (reused slots
  /// keep their capacity).
  ExecutionTranscript* transcript_slot(std::size_t t) {
    if (!spec.record_transcripts) return nullptr;
    ExecutionTranscript& slot = transcripts[t];
    slot.clear();
    return &slot;
  }
};

/// Copies the spec into the job and sizes the per-trial slots and the
/// batch to its trial window.
void size_job(ScenarioJob& job, const ScenarioSpec& spec) {
  job.spec = spec;
  job.window = scenario_trial_window(spec);
  job.stats.resize(job.window.count);
  if (spec.record_transcripts) job.transcripts.resize(job.window.count);
  job.batch.trials = job.window.count;
}

/// Workspace cache families (api/parallel.h WorkspaceKey); scenarios with
/// the same (family, n) share cached engines per executor thread.  Graph
/// scenarios get one family per adjacency shape so a cached engine always
/// carries the right link matrix without any per-trial comparison.
constexpr int kRingFamily = 1;
constexpr int kGraphFamily = 2;
constexpr int kSyncFamily = 3;
constexpr int kLaneFamily = 4;  ///< batched ring lane engine (sim/lane_engine.h)
constexpr int kTurnFamily = 5;  ///< turn-game positions (fullinfo/turn_game.h)
constexpr int kGraphFamilyBase = 16;  ///< + GraphAdjacency index for restricted graphs

int graph_family(GraphAdjacency adjacency) {
  return adjacency == GraphAdjacency::kComplete
             ? kGraphFamily
             : kGraphFamilyBase + static_cast<int>(adjacency);
}

/// Shared reduction: fold the per-trial stats, in trial order, into the
/// aggregate result.  This is the only place trial data merges, so the
/// merge order — and thus every derived mean — is independent of the worker
/// count and the chunking.  Sums are exact integer totals so shard results
/// merge() bit-identically.
void reduce_job(ScenarioJob& job) {
  ScenarioResult& result = job.result;
  for (const TrialStats& trial : job.stats) {
    result.outcomes.record(trial.outcome);
    result.total_messages += trial.messages;
    result.max_messages = std::max(result.max_messages, trial.messages);
    result.total_sync_gap += trial.sync_gap;
    result.max_sync_gap = std::max(result.max_sync_gap, trial.sync_gap);
    result.max_rounds = std::max(result.max_rounds, trial.rounds);
    if (job.spec.record_outcomes) result.per_trial.push_back(trial.outcome);
  }
  result.trials = job.stats.size();
  result.trial_offset = job.window.first;
  result.spec_trials = job.spec.trials;
  result.base_seed = job.spec.seed;
  result.outcomes_recorded = job.spec.record_outcomes;
  result.transcripts_recorded = job.spec.record_transcripts;
  result.per_trial_transcript = std::move(job.transcripts);
  if (!job.stats.empty()) {
    result.mean_messages =
        static_cast<double>(result.total_messages) / static_cast<double>(result.trials);
    result.mean_sync_gap =
        static_cast<double>(result.total_sync_gap) / static_cast<double>(result.trials);
  }
}

/// The spec's explicit step limit, or the default slack over the protocol's
/// honest message bound (shared by the ring and graph runtimes).
std::uint64_t derived_step_limit(std::uint64_t requested, std::uint64_t honest_bound) {
  return requested != 0 ? requested : honest_bound * 2 + 4096;
}

void require_n(const ScenarioSpec& spec, int minimum) {
  if (spec.n < minimum) {
    throw std::invalid_argument("scenario needs n >= " + std::to_string(minimum) +
                                " (got " + std::to_string(spec.n) + ")");
  }
}

/// Sync scenarios read step_limit as a round limit.
void require_round_limit_fits(const ScenarioSpec& spec) {
  if (spec.step_limit > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument("sync scenarios interpret step_limit as a round limit; " +
                                std::to_string(spec.step_limit) + " does not fit in int");
  }
}

/// The spec's explicit round limit, or the protocol's round_bound(n).
int sync_round_limit(const ScenarioSpec& spec, const SyncProtocol& protocol) {
  return spec.step_limit != 0 ? static_cast<int>(spec.step_limit)
                              : protocol.round_bound(spec.n);
}

/// Per-worker workspace (DESIGN.md §4): one engine + one strategy arena,
/// cached per executor thread under (family, n) and reused across every
/// trial and across scenarios of the same shape.  The engine is (re)built
/// only when its shape (step/round limit, scheduler) changes and rearmed
/// with reset() otherwise, so steady-state trials perform no engine
/// allocations.
template <typename Engine, typename StrategyType>
struct EngineWorkspace {
  using Strategy = StrategyType;
  std::unique_ptr<Engine> engine;
  StrategyArena arena;
  std::vector<Strategy*> profile;
};

using RingWorkspace = EngineWorkspace<RingEngine, RingStrategy>;
using GraphWorkspace = EngineWorkspace<GraphEngine, GraphStrategy>;
using SyncWorkspace = EngineWorkspace<SyncEngine, SyncStrategy>;

/// Per-worker turn-game workspace: one position, reset by every trial.  A
/// position reads its game's data, so the workspace pins the game it was
/// built from; a cached workspace handed a job with another game object
/// rebuilds the position (identity decides, and the pin keeps a freed
/// game's address from being reused while the workspace holds it).
struct TurnWorkspace {
  std::shared_ptr<const TurnGame> game;
  std::unique_ptr<TurnPosition> position;
};

template <typename Workspace>
WorkspaceFactory workspace_factory() {
  return [] { return std::static_pointer_cast<void>(std::make_shared<Workspace>()); };
}

/// rng=ctr streams exist only where the ring engines plumb the kind into
/// the tapes; every other runtime is pinned to the xoshiro reference
/// streams.  Shared by prepare_scenario_job and run_ring_scenario.
void require_rng_supported(const ScenarioSpec& spec) {
  if (spec.rng != RngKind::kXoshiro && spec.topology != TopologyKind::kRing) {
    throw std::invalid_argument(
        "ScenarioSpec.rng = '" + std::string(to_string(spec.rng)) +
        "' is ring-only (other runtimes' tapes are pinned to the xoshiro reference "
        "streams); got topology '" +
        to_string(spec.topology) + "'");
  }
}

/// Adapts a per-trial runtime to the executor's chunk body: runs local
/// trials [begin, end) in order, each under its own seed, and stores each
/// trial's stats in its slot.  `trial(t, seed, workspace)` runs local
/// trial t.
template <typename Trial>
Executor::Body per_trial_body(ScenarioJob& job, Trial trial) {
  ScenarioJob* j = &job;
  return [j, trial = std::move(trial)](std::size_t begin, std::size_t end, void* workspace) {
    for (std::size_t t = begin; t < end; ++t) {
      j->stats[t] = trial(t, j->trial_seed(t), workspace);
    }
  };
}

/// Resolves a registry (protocol, deviation) pair into one runtime
/// family's factories, rejecting entries without a factory for `family`:
/// per_trial protocols are rebuilt from each trial's seed (their deviation
/// with them); deterministic ones are built once, here, and shared
/// read-only by every worker.
template <typename Protocol, typename Dev>
TrialFactories<Protocol, Dev> registry_factories(
    const ScenarioJob& job, const std::string& family, const ProtocolEntry& protocol_entry,
    const DeviationEntry* deviation_entry,
    std::function<std::unique_ptr<Protocol>(const ScenarioSpec&, std::uint64_t)>
        ProtocolEntry::*protocol_factory,
    std::function<std::unique_ptr<Dev>(const Protocol&, const ScenarioSpec&)>
        DeviationEntry::*deviation_factory) {
  const auto* make_protocol = &(protocol_entry.*protocol_factory);
  if (!*make_protocol) {
    throw std::invalid_argument("protocol '" + protocol_entry.name + "' does not run on the " +
                                family + " topology");
  }
  const auto* make_deviation = deviation_entry ? &(deviation_entry->*deviation_factory) : nullptr;
  if (make_deviation && !*make_deviation) {
    throw std::invalid_argument("deviation '" + deviation_entry->name + "' does not apply to " +
                                family + " protocols");
  }
  const ScenarioSpec* spec = &job.spec;
  TrialFactories<Protocol, Dev> factories;
  if (protocol_entry.per_trial) {
    factories.protocol = [spec, make_protocol](std::uint64_t trial_seed) {
      return std::shared_ptr<const Protocol>((*make_protocol)(*spec, trial_seed));
    };
    if (make_deviation) {
      factories.deviation = [spec, make_deviation](const Protocol& protocol, std::uint64_t) {
        return std::shared_ptr<const Dev>((*make_deviation)(protocol, *spec));
      };
    }
    return factories;
  }
  const std::shared_ptr<const Protocol> shared_protocol = (*make_protocol)(*spec, spec->seed);
  factories.protocol = [shared_protocol](std::uint64_t) { return shared_protocol; };
  if (make_deviation) {
    const std::shared_ptr<const Dev> shared_deviation =
        (*make_deviation)(*shared_protocol, *spec);
    factories.deviation = [shared_deviation](const Protocol&, std::uint64_t) {
      return shared_deviation;
    };
  }
  return factories;
}

/// The factory-driven runtimes' shared skeleton: resolves the display names
/// from one representative instance under the base seed, before any worker
/// runs, then runs every trial with that trial's protocol and deviation.
/// `run(t, seed, workspace, protocol, deviation)` returns the trial's stats.
template <typename Protocol, typename Dev, typename Run>
void fill_factory_job(ScenarioJob& job, TrialFactories<Protocol, Dev> factories, Run run) {
  job.result = ScenarioResult(job.spec.n);
  {
    const std::shared_ptr<const Protocol> named = factories.protocol(job.spec.seed);
    job.result.protocol_name = named->name();
    if (factories.deviation) {
      const std::shared_ptr<const Dev> dev = factories.deviation(*named, job.spec.seed);
      if (dev) job.result.deviation_name = dev->name();
    }
  }
  job.batch.body = per_trial_body(
      job, [factories = std::move(factories), run = std::move(run)](
               std::size_t t, std::uint64_t seed, void* workspace) {
        const std::shared_ptr<const Protocol> protocol = factories.protocol(seed);
        std::shared_ptr<const Dev> deviation;
        if (factories.deviation) deviation = factories.deviation(*protocol, seed);
        return run(t, seed, workspace, *protocol, deviation.get());
      });
}

/// A scalar engine runtime on a cached EngineWorkspace.  The workspace may
/// come from another scenario with the same key, so `arm(engine, protocol,
/// seed)` rebuilds the engine whenever it is missing or its shape differs,
/// and reset()s it otherwise; `measure(engine, stats)` maps the engine's
/// stats into the trial's.
template <typename Workspace, typename Protocol, typename Dev, typename Arm, typename Measure>
void fill_engine_job(ScenarioJob& job, int family, TrialFactories<Protocol, Dev> factories,
                     Arm arm, Measure measure) {
  ScenarioJob* j = &job;
  fill_factory_job(
      job, std::move(factories),
      [j, arm = std::move(arm), measure = std::move(measure)](
          std::size_t t, std::uint64_t seed, void* raw, const Protocol& protocol,
          const Dev* deviation) {
        auto& ws = *static_cast<Workspace*>(raw);
        arm(ws.engine, protocol, seed);
        // Always (re)point the hook: a cached engine may carry the previous
        // scenario's transcript pointer.
        ws.engine->set_transcript(j->transcript_slot(t));
        ws.arena.rewind();
        compose_profile_into(protocol, deviation, j->spec.n, ws.arena, ws.profile);
        TrialStats stats;
        stats.outcome =
            ws.engine->run(std::span<typename Workspace::Strategy* const>(ws.profile));
        ws.engine->set_transcript(nullptr);  // the slot vector outlives no one
        measure(*ws.engine, stats);
        return stats;
      });
  job.batch.workspace = WorkspaceKey{family, job.spec.n};
  job.batch.make_workspace = workspace_factory<Workspace>();
}

void fill_ring_job(ScenarioJob& job, RingTrialFactories factories) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  require_rng_supported(spec);
  ScenarioJob* j = &job;
  if (spec.topology == TopologyKind::kThreaded) {
    // One OS thread per processor, each with its own arena (an arena is
    // single-threaded): the runtime's whole point is fresh threads, so there
    // is nothing to reuse.
    fill_factory_job(job, std::move(factories),
                     [j](std::size_t, std::uint64_t seed, void*, const RingProtocol& protocol,
                         const Deviation* deviation) {
                       ThreadedRuntimeOptions options;
                       options.send_limit = scenario_ring_step_limit(j->spec, protocol);
                       ThreadedRuntime runtime(j->spec.n, seed, options);
                       std::vector<StrategyArena> arenas(static_cast<std::size_t>(j->spec.n));
                       std::vector<RingStrategy*> profile;
                       compose_profile_into(protocol, deviation, j->spec.n, arenas, profile);
                       TrialStats stats;
                       stats.outcome = runtime.run(profile);
                       stats.messages = runtime.stats().total_sent;
                       return stats;
                     });
    return;
  }
  fill_engine_job<RingWorkspace>(
      job, kRingFamily, std::move(factories),
      [j](std::unique_ptr<RingEngine>& engine, const RingProtocol& protocol, std::uint64_t seed) {
        const ScenarioSpec& spec = j->spec;
        const std::uint64_t step_limit = scenario_ring_step_limit(spec, protocol);
        if (engine && engine->step_limit() == step_limit &&
            engine->scheduler_kind() == spec.scheduler && engine->rng_kind() == spec.rng) {
          engine->reset(seed);
          return;
        }
        EngineOptions options;
        options.step_limit = step_limit;
        options.scheduler_kind = spec.scheduler;
        options.rng = spec.rng;
        engine = std::make_unique<RingEngine>(spec.n, seed, std::move(options));
      },
      [](const RingEngine& engine, TrialStats& stats) {
        stats.messages = engine.stats().total_sent;
        stats.sync_gap = engine.stats().max_sync_gap;
      });
}

/// Per-worker lane workspace: one batched lane engine plus the
/// window-shaped seed / result / transcript-pointer staging vectors, cached
/// under the lane family's key like every other engine workspace.
struct LaneWorkspace {
  std::unique_ptr<LaneEngine> engine;
  std::vector<std::uint64_t> seeds;
  std::vector<LaneTrialResult> results;
  std::vector<ExecutionTranscript*> transcripts;
};

/// The specializer's fast path: the executor hands whole trial windows to
/// a batched LaneEngine.  Only reachable for lane_eligible() specs
/// (route_to_lanes gates it), so the protocol always has a devirtualized
/// kernel and the profile is honest or one of the lane-served deviations
/// (basic-single, rushing).
void fill_lane_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  job.result = ScenarioResult(spec.n);
  const LaneKernelId kernel = *lane_kernel_for(spec.protocol);

  // One representative instance resolves the display name and the step
  // limit; the kernels' honest message bounds depend only on n, so the
  // limit is uniform across the window's trials.
  LaneEngineOptions options;
  options.scheduler_kind = spec.scheduler;
  options.rng = spec.rng;
  {
    const std::shared_ptr<const RingProtocol> named =
        protocol_entry->make_ring(spec, spec.seed);
    job.result.protocol_name = named->name();
    options.step_limit = scenario_ring_step_limit(spec, *named);
    if (deviation_entry) {
      // Build the scalar deviation once: its factory runs exactly the
      // validation the scalar path would (coalition preconditions, honest
      // origin, target range) and resolves the display name plus the
      // member layout the lane register file bakes in.
      const std::shared_ptr<const Deviation> scalar =
          deviation_entry->make_ring(*named, spec);
      job.result.deviation_name = scalar->name();
      options.deviation.id = *lane_deviation_id(spec.deviation);
      options.deviation.members = scalar->coalition().members();
      options.deviation.segment_lengths = scalar->coalition().segment_lengths();
      options.deviation.target = spec.target;
    }
  }

  // Each chunk runs as one window: its seeds and transcript slots are
  // staged, run_window executes them, and each trial's result lands in its
  // stats slot.  A cached engine (n fixed by the workspace key) is rebuilt
  // only when its shape differs from this job's.
  ScenarioJob* j = &job;
  job.batch.body = [j, kernel, options](std::size_t begin, std::size_t end, void* raw) {
    auto& ws = *static_cast<LaneWorkspace*>(raw);
    if (!ws.engine || ws.engine->kernel() != kernel ||
        ws.engine->step_limit() != options.step_limit ||
        ws.engine->scheduler_kind() != options.scheduler_kind ||
        ws.engine->rng_kind() != options.rng || ws.engine->deviation() != options.deviation) {
      ws.engine = std::make_unique<LaneEngine>(j->spec.n, kernel, options);
    }
    const std::size_t count = end - begin;
    ws.seeds.resize(count);
    ws.results.resize(count);
    for (std::size_t i = 0; i < count; ++i) ws.seeds[i] = j->trial_seed(begin + i);
    std::span<ExecutionTranscript* const> transcripts;
    if (j->spec.record_transcripts) {
      ws.transcripts.resize(count);
      for (std::size_t i = 0; i < count; ++i) ws.transcripts[i] = j->transcript_slot(begin + i);
      transcripts = std::span<ExecutionTranscript* const>(ws.transcripts);
    }
    ws.engine->run_window(std::span<const std::uint64_t>(ws.seeds),
                          std::span<LaneTrialResult>(ws.results), transcripts);
    for (std::size_t i = 0; i < count; ++i) {
      const LaneTrialResult& r = ws.results[i];
      j->stats[begin + i] = TrialStats{r.outcome, r.messages, r.max_sync_gap};
    }
  };
  job.batch.workspace = WorkspaceKey{kLaneFamily, spec.n};
  job.batch.make_workspace = workspace_factory<LaneWorkspace>();
}

void fill_graph_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                    const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  LinkScheduleKind schedule = LinkScheduleKind::kRoundRobin;
  switch (spec.scheduler) {
    case SchedulerKind::kRoundRobin:
      schedule = LinkScheduleKind::kRoundRobin;
      break;
    case SchedulerKind::kRandom:
      schedule = LinkScheduleKind::kRandom;
      break;
    case SchedulerKind::kPriority:
      throw std::invalid_argument("the priority scheduler is ring-only");
  }

  ScenarioJob* j = &job;
  fill_engine_job<GraphWorkspace>(
      job, graph_family(spec.adjacency),
      registry_factories(job, "graph", *protocol_entry, deviation_entry,
                         &ProtocolEntry::make_graph, &DeviationEntry::make_graph),
      [j, schedule](std::unique_ptr<GraphEngine>& engine, const GraphProtocol& protocol,
                    std::uint64_t seed) {
        const ScenarioSpec& spec = j->spec;
        const std::uint64_t step_limit =
            derived_step_limit(spec.step_limit, protocol.honest_message_bound(spec.n));
        // The adjacency shape is baked into the workspace family, so a
        // cached engine here always carries the matrix this scenario needs.
        if (engine && engine->step_limit() == step_limit &&
            engine->schedule_kind() == schedule) {
          engine->reset(seed, /*schedule_seed=*/seed);
          return;
        }
        GraphEngineOptions options;
        options.step_limit = step_limit;
        options.schedule = schedule;
        options.schedule_seed = seed;
        options.adjacency = build_adjacency(spec.adjacency, spec.n);
        engine = std::make_unique<GraphEngine>(spec.n, seed, std::move(options));
      },
      [](const GraphEngine& engine, TrialStats& stats) {
        stats.messages = engine.stats().total_sent;
      });
}

void fill_sync_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  require_round_limit_fits(spec);

  ScenarioJob* j = &job;
  fill_engine_job<SyncWorkspace>(
      job, kSyncFamily,
      registry_factories(job, "sync", *protocol_entry, deviation_entry,
                         &ProtocolEntry::make_sync, &DeviationEntry::make_sync),
      [j](std::unique_ptr<SyncEngine>& engine, const SyncProtocol& protocol, std::uint64_t seed) {
        const int round_limit = sync_round_limit(j->spec, protocol);
        if (engine && engine->round_limit() == round_limit) {
          engine->reset(seed);
          return;
        }
        SyncEngineOptions options;
        options.round_limit = round_limit;
        engine = std::make_unique<SyncEngine>(j->spec.n, seed, options);
      },
      [](const SyncEngine& engine, TrialStats& stats) {
        stats.messages = engine.stats().total_sent;
        stats.rounds = engine.stats().rounds;
      });
}

void fill_turn_job(ScenarioJob& job, const ProtocolEntry* protocol_entry,
                   const DeviationEntry* deviation_entry) {
  const ScenarioSpec& spec = job.spec;
  require_n(spec, 2);
  if (!protocol_entry->make_game) {
    throw std::invalid_argument("protocol '" + protocol_entry->name +
                                "' does not run as a turn game (topology '" +
                                to_string(spec.topology) + "')");
  }
  if (deviation_entry && (!deviation_entry->make_turn || !deviation_entry->turn_coalition)) {
    throw std::invalid_argument("deviation '" + deviation_entry->name +
                                "' does not apply to turn games");
  }
  // The game, its coalition and its adversary are built once per job and
  // shared read-only by every worker (TurnAdversary::choose is const).
  const std::shared_ptr<const TurnGame> game = protocol_entry->make_game(spec);
  std::vector<ProcessorId> coalition;
  std::shared_ptr<const TurnAdversary> adversary;
  if (deviation_entry) {
    coalition = deviation_entry->turn_coalition(*game, spec);
    adversary = deviation_entry->make_turn(*game, spec);
  }

  // Turn-game outcomes live in [0, players) for elections and {0, 1} for
  // coin games; size the counter to cover both.
  const int domain = std::max(game->players(), std::max(spec.n, 2));
  job.result = ScenarioResult(domain);
  job.result.protocol_name = protocol_entry->name;
  if (deviation_entry) job.result.deviation_name = deviation_entry->name;

  ScenarioJob* j = &job;
  job.batch.body = per_trial_body(
      job, [j, game, adversary, coalition = std::move(coalition)](
               std::size_t t, std::uint64_t seed, void* raw) {
        auto& ws = *static_cast<TurnWorkspace*>(raw);
        if (ws.game != game) {
          ws.position = game->new_position();
          ws.game = game;
        }
        Xoshiro256 rng(seed);
        TrialStats stats;
        stats.outcome = Outcome::elected(play_turn_game(*ws.position, coalition, adversary.get(),
                                                        rng, j->transcript_slot(t)));
        return stats;
      });
  job.batch.workspace = WorkspaceKey{kTurnFamily, spec.n};
  job.batch.make_workspace = workspace_factory<TurnWorkspace>();
}

/// Transcript capture needs a deterministic runtime; the threaded runtime's
/// schedule belongs to the OS.  Shared by prepare_scenario_job and the
/// factory-driven run_ring_scenario path.
void require_transcribable(const ScenarioSpec& spec) {
  if (spec.record_transcripts && spec.topology == TopologyKind::kThreaded) {
    throw std::invalid_argument(
        "ScenarioSpec.record_transcripts: topology 'threaded' is scheduled by the OS and "
        "cannot be deterministically transcribed (use 'ring' — the §2 equivalence makes the "
        "executions interchangeable)");
  }
}

/// Validates the spec's plain fields, resolves the registries, and builds
/// the executor-ready job.  Shared by run_scenario and run_sweep.
std::unique_ptr<ScenarioJob> prepare_scenario_job(const ScenarioSpec& spec) {
  if (spec.protocol.empty()) {
    throw std::invalid_argument("ScenarioSpec.protocol must name a registered protocol");
  }
  // Validate the spec's plain fields up front, before any factory runs, so
  // the error names the spec field rather than whatever internal invariant
  // a factory trips over first.
  if (spec.n < 2) {
    throw std::invalid_argument("ScenarioSpec.n must be >= 2 (got " +
                                std::to_string(spec.n) + ")");
  }
  build_coalition(spec.coalition, spec.n);  // throws with the offending field
  require_transcribable(spec);
  require_rng_supported(spec);
  // The routing decision (and the engine=lanes eligibility error) comes
  // before any factory runs, like every other spec-field validation.
  const bool lanes = route_to_lanes(spec);
  register_builtin_scenarios();
  const ProtocolEntry* protocol_entry = &ProtocolRegistry::instance().at(spec.protocol);
  const DeviationEntry* deviation_entry =
      spec.deviation.empty() ? nullptr : &DeviationRegistry::instance().at(spec.deviation);

  auto job = std::make_unique<ScenarioJob>();
  size_job(*job, spec);
  switch (spec.topology) {
    case TopologyKind::kRing:
    case TopologyKind::kThreaded:
      if (lanes) {
        fill_lane_job(*job, protocol_entry, deviation_entry);
      } else {
        fill_ring_job(*job, registry_factories(*job, "ring", *protocol_entry, deviation_entry,
                                               &ProtocolEntry::make_ring,
                                               &DeviationEntry::make_ring));
      }
      break;
    case TopologyKind::kGraph:
      fill_graph_job(*job, protocol_entry, deviation_entry);
      break;
    case TopologyKind::kSync:
      fill_sync_job(*job, protocol_entry, deviation_entry);
      break;
    case TopologyKind::kTree:
    case TopologyKind::kFullInfo:
      fill_turn_job(*job, protocol_entry, deviation_entry);
      break;
  }
  return job;
}

/// Runs one prepared job on `spec.threads` workers of the shared executor
/// and reduces it; the wall time counts from `start`.
ScenarioResult run_job(ScenarioJob& job, std::chrono::steady_clock::time_point start) {
  Executor::shared().run(std::span<Executor::Batch>(&job.batch, 1), job.spec.threads);
  reduce_job(job);
  job.result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return std::move(job.result);
}

}  // namespace

std::uint64_t scenario_trial_seed(std::uint64_t base_seed, std::size_t trial) {
  // The splitmix64 stream of base_seed: state after trial+1 golden-gamma
  // increments, finalized.  Equivalent to calling splitmix64 trial+1 times,
  // but random-access so workers can seed any trial independently.
  return mix64(base_seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(trial) + 1));
}

std::uint64_t scenario_ring_step_limit(const ScenarioSpec& spec,
                                       const RingProtocol& protocol) {
  return derived_step_limit(spec.step_limit, protocol.honest_message_bound(spec.n));
}

ScenarioResult run_ring_scenario(const ScenarioSpec& spec,
                                 const RingTrialFactories& factories) {
  const auto start = std::chrono::steady_clock::now();
  require_transcribable(spec);
  ScenarioJob job;
  size_job(job, spec);
  fill_ring_job(job, factories);
  return run_job(job, start);
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  return run_job(*prepare_scenario_job(spec), start);
}

std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep) {
  // A sweep backend (the fabric's RemoteExecutor, or a test double) takes
  // the whole sweep; its contract is a result vector bit-identical to the
  // in-process path below.
  if (SweepBackend* backend = sweep_backend()) return backend->run_sweep(sweep);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<ScenarioJob>> jobs;
  jobs.reserve(sweep.scenarios.size());
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    try {
      jobs.push_back(prepare_scenario_job(sweep.scenarios[i]));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument("SweepSpec.scenarios[" + std::to_string(i) +
                                  "]: " + error.what());
    }
  }
  // The bodies point at their (heap-stable) jobs, so the batches can move
  // into the one contiguous submission.
  std::vector<Executor::Batch> batches;
  batches.reserve(jobs.size());
  for (const auto& job : jobs) batches.push_back(std::move(job->batch));
  Executor::shared().run(std::span<Executor::Batch>(batches), sweep.threads);

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::vector<ScenarioResult> results;
  results.reserve(jobs.size());
  for (const auto& job : jobs) {
    reduce_job(*job);
    // Scenarios share the submission, so each result reports the sweep's
    // wall time (per-scenario attribution is meaningless under stealing).
    job->result.wall_seconds = elapsed;
    results.push_back(std::move(job->result));
  }
  return results;
}

}  // namespace fle
