// Micro-benchmarks (google-benchmark): engine throughput, PRF evaluation,
// full-protocol execution latency, engine construction-vs-reuse, and
// end-to-end run_scenario throughput.  These are sanity-of-substrate
// numbers, not paper claims.
//
// The *_ConstructEach / *_Reused pairs measure the zero-allocation
// execution model: ConstructEach builds a fresh engine and a fresh
// StrategyArena (so fresh arena chunks) per trial; Reused rearms one engine
// with reset() and rebuilds strategies in one rewound StrategyArena.  The
// allocations_per_trial counter (counting operator new shim below) is the
// steady-state allocation count of the measured loop — 0 on the reused
// ring path.
//
// The *Transcripts rows time the canonical report and the store build over
// a transcript-recording sweep, with and without the transcripts' encoding
// cache (sim/transcript.h), and the shard-row parse that feeds them; the
// BM_Sha256Blob pair times the portable and the dispatched SHA-256.

#include <benchmark/benchmark.h>

#include "core/counting_new.inc"

#include <array>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.h"
#include "api/scenario.h"
#include "api/sweep.h"
#include "attacks/coalition.h"
#include "core/ctr_rng.h"
#include "core/random_function.h"
#include "core/rng.h"
#include "fabric/driver.h"
#include "fullinfo/turn_game.h"
#include "protocols/alead_uni.h"
#include "protocols/basic_lead.h"
#include "protocols/phase_async_lead.h"
#include "protocols/shamir_lead.h"
#include "protocols/sync_lead.h"
#include "sim/arena.h"
#include "sim/digest.h"
#include "sim/engine.h"
#include "sim/graph_engine.h"
#include "sim/lane_engine.h"
#include "sim/sync_engine.h"
#include "store/store.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace {

using namespace fle;

std::atomic<std::uint64_t>& g_allocations = counting_new::allocations;

/// Attaches allocations/iteration of the timed loop to the benchmark.
class AllocationScope {
 public:
  explicit AllocationScope(benchmark::State& state,
                           const char* counter = "allocations_per_trial")
      : state_(state),
        counter_(counter),
        start_(g_allocations.load(std::memory_order_relaxed)) {}
  ~AllocationScope() {
    const auto total = g_allocations.load(std::memory_order_relaxed) - start_;
    state_.counters[counter_] = benchmark::Counter(
        static_cast<double>(total) / static_cast<double>(state_.iterations()));
  }

 private:
  benchmark::State& state_;
  const char* counter_;
  std::uint64_t start_;
};

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_XoshiroBelow(benchmark::State& state) {
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_XoshiroBelow);

void BM_CtrRngBelow(benchmark::State& state) {
  CtrRng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.below(1000));
  }
}
BENCHMARK(BM_CtrRngBelow);

void BM_CtrRngAt(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CtrRng::at(7, ++i));
  }
}
BENCHMARK(BM_CtrRngAt);

void BM_RandomFunctionEvaluate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int l = RandomFunction::default_l(n);
  RandomFunction f(1, n, RandomFunction::default_m(n), l);
  Xoshiro256 rng(3);
  std::vector<Value> d(static_cast<std::size_t>(n));
  std::vector<Value> v(static_cast<std::size_t>(n - l));
  for (auto& x : d) x = rng.below(static_cast<std::uint64_t>(n));
  for (auto& x : v) x = rng.below(RandomFunction::default_m(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.evaluate(d, v));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.size() + v.size()));
}
BENCHMARK(BM_RandomFunctionEvaluate)->Arg(64)->Arg(256)->Arg(1024);

// ---- ring engine: full honest executions (reused workspace via run_honest)

void BM_EngineBasicLead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  std::uint64_t seed = 0;
  (void)run_honest(protocol, n, ++seed);  // warm the reusable workspace
  AllocationScope allocations(state);
  for (auto _ : state) {
    const Outcome o = run_honest(protocol, n, ++seed);
    benchmark::DoNotOptimize(o);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_EngineBasicLead)->Arg(32)->Arg(128)->Arg(512);

void BM_EngineALeadUni(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ALeadUniProtocol protocol;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_honest(protocol, n, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_EngineALeadUni)->Arg(32)->Arg(128)->Arg(512);

void BM_EnginePhaseAsyncLead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PhaseAsyncLeadProtocol protocol(n, 0x5eedull);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_honest(protocol, n, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n);
}
BENCHMARK(BM_EnginePhaseAsyncLead)->Arg(32)->Arg(128)->Arg(512);

// ---- construction vs reuse: the zero-allocation execution model ----------

/// Fresh-everything trial body: a new engine and a new arena per trial.
void BM_RingTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  const std::uint64_t step_limit = protocol.honest_message_bound(n) * 2 + 1024;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    EngineOptions options;
    options.step_limit = step_limit;
    RingEngine engine(n, ++seed, std::move(options));
    StrategyArena arena;
    std::vector<RingStrategy*> profile;
    profile.reserve(static_cast<std::size_t>(n));
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<RingStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingTrialConstructEach)->Arg(32)->Arg(128);

/// Reused trial body: one engine reset per trial, strategies in a rewound arena.
void BM_RingTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  BasicLeadProtocol protocol;
  EngineOptions options;
  options.step_limit = protocol.honest_message_bound(n) * 2 + 1024;
  RingEngine engine(n, 1, std::move(options));
  StrategyArena arena;
  std::vector<RingStrategy*> profile;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    engine.reset(++seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<RingStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingTrialReused)->Arg(32)->Arg(128);

void BM_GraphTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ShamirLeadProtocol protocol(n);
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_honest_graph(protocol, n, ++seed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphTrialConstructEach)->Arg(8)->Arg(16);

void BM_GraphTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ShamirLeadProtocol protocol(n);
  GraphEngineOptions options;
  options.step_limit = protocol.honest_message_bound(n) * 2 + 4096;
  GraphEngine engine(n, 1, std::move(options));
  StrategyArena arena;
  std::vector<GraphStrategy*> profile;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    engine.reset(++seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<GraphStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphTrialReused)->Arg(8)->Arg(12)->Arg(16);

void BM_SyncTrialConstructEach(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyncBroadcastLeadProtocol protocol;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_honest_sync(protocol, n, ++seed));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncTrialConstructEach)->Arg(16)->Arg(64);

void BM_SyncTrialReused(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SyncBroadcastLeadProtocol protocol;
  SyncEngineOptions options;
  options.round_limit = protocol.round_bound(n);
  SyncEngine engine(n, 1, options);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    engine.reset(++seed);
    arena.rewind();
    profile.clear();
    for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
    benchmark::DoNotOptimize(engine.run(std::span<SyncStrategy* const>(profile)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncTrialReused)->Arg(16)->Arg(64);

// ---- turn games (fullinfo/turn_game.h): one execution on a reused position
//
// The registered game, coalition and adversary are built once, as a
// run_scenario job builds them; each iteration plays one seeded execution
// on the same position, as a cached turn-game workspace does.  The rows
// are the network-sync workload's full-information shapes.

void BM_TurnGameTrial(benchmark::State& state, const char* line) {
  register_builtin_scenarios();
  const ScenarioSpec spec = verify::parse_spec(line);
  const std::shared_ptr<const TurnGame> game =
      ProtocolRegistry::instance().at(spec.protocol).make_game(spec);
  std::vector<ProcessorId> coalition;
  std::unique_ptr<TurnAdversary> adversary;
  if (!spec.deviation.empty()) {
    const DeviationEntry& entry = DeviationRegistry::instance().at(spec.deviation);
    coalition = entry.turn_coalition(*game, spec);
    adversary = entry.make_turn(*game, spec);
  }
  const std::unique_ptr<TurnPosition> position = game->new_position();
  std::uint64_t seed = 0;
  AllocationScope allocations(state);
  for (auto _ : state) {
    Xoshiro256 rng(++seed);
    benchmark::DoNotOptimize(play_turn_game(*position, coalition, adversary.get(), rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TurnGameTrial, baton_64, "topology=fullinfo protocol=baton target=63 n=64");
BENCHMARK_CAPTURE(BM_TurnGameTrial, baton_greedy_64,
                  "topology=fullinfo protocol=baton deviation=baton-greedy placement=custom "
                  "members=1,2,3,4,5,6,7,8 target=63 n=64");
BENCHMARK_CAPTURE(BM_TurnGameTrial, majority_49,
                  "topology=fullinfo protocol=majority-coin deviation=majority-target "
                  "placement=custom members=0,1,2,3 target=1 n=49");

// ---- batched lane engine (DESIGN.md §10): window throughput --------------

void BM_LaneEngineRing(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LaneEngineOptions options;
  LaneEngine engine(n, LaneKernelId::kBasicLead, options);
  std::vector<std::uint64_t> seeds(256);
  std::vector<LaneTrialResult> results(seeds.size());
  std::uint64_t base = 0;
  AllocationScope allocations(state, "allocations_per_window");
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = ++base;
    engine.run_window(seeds, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_LaneEngineRing)->Arg(32)->Arg(128);

// The general lane path, measured honestly: fast_paths=false forces every
// trial through the burst loop over the ring-buffer inbox column (no
// token-sum shortcut), so this row is the vectorized-general-path claim
// the release-perf gate holds against the scalar run_scenario row.
void BM_LaneEngineRingGeneral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LaneEngineOptions options;
  options.fast_paths = false;
  LaneEngine engine(n, LaneKernelId::kBasicLead, options);
  std::vector<std::uint64_t> seeds(256);
  std::vector<LaneTrialResult> results(seeds.size());
  std::uint64_t base = 0;
  AllocationScope allocations(state, "allocations_per_window");
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = ++base;
    engine.run_window(seeds, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_LaneEngineRingGeneral)->Arg(32)->Arg(128);

// Deviated lane kernels: the Lemma 4.1 rushing coalition (k = n/4, equally
// spaced) on the A-LEADuni kernel, general path (no constant fast path).
void BM_LaneEngineRingDeviated(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Coalition coalition = Coalition::equally_spaced(n, n / 4, 1);
  LaneEngineOptions options;
  options.fast_paths = false;
  options.deviation.id = LaneDeviationId::kRushing;
  options.deviation.members = coalition.members();
  options.deviation.segment_lengths = coalition.segment_lengths();
  options.deviation.target = 1;
  LaneEngine engine(n, LaneKernelId::kALeadUni, options);
  std::vector<std::uint64_t> seeds(256);
  std::vector<LaneTrialResult> results(seeds.size());
  std::uint64_t base = 0;
  AllocationScope allocations(state, "allocations_per_window");
  for (auto _ : state) {
    for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = ++base;
    engine.run_window(seeds, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_LaneEngineRingDeviated)->Arg(32)->Arg(128);

// ---- end-to-end run_scenario throughput (items/sec = trials/sec) ---------

void run_scenario_throughput(benchmark::State& state, ScenarioSpec spec) {
  AllocationScope allocations(state, "allocations_per_batch");
  for (auto _ : state) {
    spec.seed += 1;  // fresh trial seeds each batch, same workload shape
    const ScenarioResult result = run_scenario(spec);
    benchmark::DoNotOptimize(result.outcomes.trials());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spec.trials));
}

void BM_RunScenarioRing(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = static_cast<int>(state.range(0));
  spec.trials = 100;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRing)->Arg(32)->Arg(128);

// The scalar-vs-lane comparison rows: identical workloads with the engine
// pinned, so the items/sec ratio is the lane path's end-to-end win (the
// results themselves are bit-identical — that is gated in the test suite).
void BM_RunScenarioRingScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = static_cast<int>(state.range(0));
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRingScalar)->Arg(32)->Arg(128);

void BM_RunScenarioRingLanes(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = static_cast<int>(state.range(0));
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kLanes;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRingLanes)->Arg(32)->Arg(128);

void BM_RunScenarioRingParallel(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kRing;
  spec.protocol = "basic-lead";
  spec.n = 64;
  spec.trials = 512;
  spec.threads = 0;  // one worker per core
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioRingParallel);

void BM_RunScenarioGraph(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kGraph;
  spec.protocol = "shamir-lead";
  spec.n = 8;
  spec.trials = 50;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioGraph);

void BM_RunScenarioSync(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-broadcast-lead";
  spec.n = 16;
  spec.trials = 200;
  spec.threads = 1;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioSync);

// Scalar-vs-lane comparison rows for the deviated ring profiles, engines
// pinned as above.
void BM_RunScenarioDeviatedScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "basic-single";
  spec.target = 3;
  spec.n = 128;
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioDeviatedScalar);

void BM_RunScenarioDeviatedLanes(benchmark::State& state) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.deviation = "basic-single";
  spec.target = 3;
  spec.n = 128;
  spec.trials = 100;
  spec.threads = 1;
  spec.engine = EngineKind::kLanes;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioDeviatedLanes);

// The sync runtime has no lanes; this row pins its engine explicitly so
// the scalar sync trajectory keeps its name in BENCH_perf_micro.json.
void BM_RunScenarioSyncScalar(benchmark::State& state) {
  ScenarioSpec spec;
  spec.topology = TopologyKind::kSync;
  spec.protocol = "sync-broadcast-lead";
  spec.n = 16;
  spec.trials = 200;
  spec.threads = 1;
  spec.engine = EngineKind::kScalar;
  run_scenario_throughput(state, spec);
}
BENCHMARK(BM_RunScenarioSyncScalar);

// ---- sweep vs serial: cross-scenario work stealing (items/sec = trials) --
//
// The PR-4 acceptance workload, shaped like the drivers that motivated the
// sweep layer: hundreds of fuzz-spec-sized scenarios (a couple of trials
// each — smaller than the worker count, so scenario-at-a-time execution
// strands workers AND pays a full submission round-trip per scenario) plus
// a few larger table rows.  Serial = one run_scenario call per scenario;
// Batched = the identical scenarios as ONE run_sweep submission sharing
// the executor's chunk queue.  Same trials, same seeds, same results — the
// items/sec ratio is the sweep layer's win (>= 1.5x even on one core,
// where only the submission amortization shows; larger on multicore,
// where the stranded workers come back too).

SweepSpec mixed_sweep_spec() {
  SweepSpec sweep;
  sweep.threads = 8;
  for (int i = 0; i < 320; ++i) {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 8;
    spec.trials = 2;
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    sweep.add(spec);
  }
  for (int i = 0; i < 4; ++i) {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 64;
    spec.trials = 8;
    spec.seed = 900 + static_cast<std::uint64_t>(i);
    sweep.add(spec);
  }
  return sweep;
}

std::int64_t sweep_trials(const SweepSpec& sweep) {
  std::int64_t total = 0;
  for (const ScenarioSpec& spec : sweep.scenarios) {
    total += static_cast<std::int64_t>(spec.trials);
  }
  return total;
}

void BM_MixedSweepSerial(benchmark::State& state) {
  const SweepSpec sweep = mixed_sweep_spec();
  for (auto _ : state) {
    for (ScenarioSpec spec : sweep.scenarios) {
      spec.threads = sweep.threads;
      benchmark::DoNotOptimize(run_scenario(spec).outcomes.trials());
    }
  }
  state.SetItemsProcessed(state.iterations() * sweep_trials(sweep));
}
BENCHMARK(BM_MixedSweepSerial)->UseRealTime();

void BM_MixedSweepBatched(benchmark::State& state) {
  const SweepSpec sweep = mixed_sweep_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(sweep).size());
  }
  state.SetItemsProcessed(state.iterations() * sweep_trials(sweep));
}
BENCHMARK(BM_MixedSweepBatched)->UseRealTime();

// ---- transcript report and store layers (items/sec = trials) ------------
//
// ci/sweep_lanes.txt's shapes with transcripts recorded on every row, run
// in-process once (fle_sweep --local).  Each row has two variants:
//   fresh  — the run_sweep results as captured, so every transcript is
//            encoded and hashed inside the timed loop (a worker, --local);
//   parsed — the same results after a trip through shard rows, as the
//            fabric driver and `fle_store build` hold them: every transcript
//            carries its cached bytes and its verified content key.
// The gap between the two is what the encoding cache saves per layer.

struct TranscriptSweep {
  SweepSpec sweep;
  std::vector<std::string> spec_lines;
  std::vector<ScenarioResult> fresh;
  std::vector<std::string> rows;  ///< the fresh results as shard rows
  std::vector<ScenarioResult> parsed;
  std::int64_t trials = 0;
};

const TranscriptSweep& transcript_sweep() {
  static const TranscriptSweep data = [] {
    TranscriptSweep out;
    const std::string path = std::string(FLE_SOURCE_DIR) + "/ci/sweep_lanes.txt";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      ScenarioSpec spec = verify::parse_spec(line);
      spec.record_transcripts = true;
      out.sweep.add(spec);
      out.spec_lines.push_back(verify::format_spec(verify::shard_key_spec(spec)));
      out.trials += static_cast<std::int64_t>(spec.trials);
    }
    out.fresh = run_sweep(out.sweep);
    for (std::size_t i = 0; i < out.fresh.size(); ++i) {
      verify::ShardRow row;
      row.case_index = i;
      row.spec_line = out.spec_lines[i];
      row.result = out.fresh[i];
      out.rows.push_back(verify::format_shard_row(row));
      out.parsed.push_back(verify::parse_shard_row(out.rows.back()).result);
    }
    return out;
  }();
  return data;
}

void BM_CanonicalReportTranscripts(benchmark::State& state, bool parsed) {
  const TranscriptSweep& data = transcript_sweep();
  const std::vector<ScenarioResult>& results = parsed ? data.parsed : data.fresh;
  std::size_t bytes = 0;
  {
    const AllocationScope allocations(state, "allocations_per_iteration");
    for (auto _ : state) {
      const std::string report = fabric::canonical_report(data.sweep, results);
      bytes = report.size();
      benchmark::DoNotOptimize(report.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * data.trials);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_CanonicalReportTranscripts, fresh, false);
BENCHMARK_CAPTURE(BM_CanonicalReportTranscripts, parsed, true);

void BM_StoreBuildTranscripts(benchmark::State& state, bool parsed) {
  const TranscriptSweep& data = transcript_sweep();
  const std::vector<ScenarioResult>& results = parsed ? data.parsed : data.fresh;
  std::size_t bytes = 0;
  {
    const AllocationScope allocations(state, "allocations_per_iteration");
    for (auto _ : state) {
      StoreWriter writer;
      for (std::size_t i = 0; i < results.size(); ++i) {
        writer.add_scenario(data.spec_lines[i], results[i].per_trial_transcript);
      }
      const std::vector<std::uint8_t> image = writer.finish();
      bytes = image.size();
      benchmark::DoNotOptimize(image.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * data.trials);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_StoreBuildTranscripts, fresh, false);
BENCHMARK_CAPTURE(BM_StoreBuildTranscripts, parsed, true);

// The fabric driver's serial ingest of the sweep's shard rows: scan the
// JSON, decode each hex transcript and verify its store_keys cell by
// re-hashing the blob (items/sec = trials, bytes/sec = row bytes).
void BM_ParseShardRowTranscripts(benchmark::State& state) {
  const TranscriptSweep& data = transcript_sweep();
  std::int64_t bytes = 0;
  for (const std::string& row : data.rows) bytes += static_cast<std::int64_t>(row.size());
  for (auto _ : state) {
    for (const std::string& row : data.rows) {
      const verify::ShardRow parsed = verify::parse_shard_row(row);
      benchmark::DoNotOptimize(parsed.result.trials);
    }
  }
  state.SetItemsProcessed(state.iterations() * data.trials);
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ParseShardRowTranscripts);

// ---- SHA-256 (bytes/sec = blob bytes) -----------------------------------
//
// One 1,311-byte blob, the mean transcript blob of the fabric-transcripts
// workload:
//   portable   — its padded blocks through the portable compression loop;
//   dispatched — Sha256::of, the compression function this CPU selects
//                (SHA-NI where cpuid reports it).

void BM_Sha256Blob(benchmark::State& state, bool dispatched) {
  constexpr std::size_t kBlobBytes = 1311;
  std::vector<std::uint8_t> blob(kBlobBytes);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::uint8_t>(i * 131 + 7);
  std::vector<std::uint8_t> padded = blob;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>((kBlobBytes * 8) >> shift));
  }
  for (auto _ : state) {
    if (dispatched) {
      const Digest256 digest = Sha256::of(blob);
      benchmark::DoNotOptimize(digest.bytes.data());
    } else {
      std::array<std::uint32_t, 8> words = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                                            0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
      detail::sha256_compress_portable(words, padded.data(), padded.size() / 64);
      benchmark::DoNotOptimize(words.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(kBlobBytes));
}
BENCHMARK_CAPTURE(BM_Sha256Blob, portable, false);
BENCHMARK_CAPTURE(BM_Sha256Blob, dispatched, true);

}  // namespace

BENCHMARK_MAIN();
