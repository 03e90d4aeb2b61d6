// perfbench — end-to-end sweep benchmark with per-layer attribution.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--setup-only] [--workloads DIR] [--trace-out FILE]
//
// A workload is a spec file under perfbench/workloads/ (one verify/fuzzer.h
// spec line per line, without seeds; each line's seed is derived from
// --seed).  The benchmark runs it the way fle_sweep users do: parse the
// spec lines, run the sweep (in-process run_sweep, or a RemoteExecutor
// serving in-process run_worker threads over loopback), render
// fabric::canonical_report, and — for the fabric workload — build a
// transcript store from the results and sync it against the reference
// store.  Every pass is checked row by row against a reference computed
// once, outside the timed passes and outside set-up.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from spans recorded around this file's calls into each module,
// the time no span covers, and the tracing overhead.  The last line of
// standard output is one JSON object {correct, attempted, failed, metrics};
// the exit code is 1 when any scenario of any pass fails its check.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "api/registry.h"
#include "api/scenario.h"
#include "api/specialize.h"
#include "api/sweep.h"
#include "fabric/driver.h"
#include "fabric/wire.h"
#include "fabric/worker.h"
#include "host.h"
#include "store/store.h"
#include "trace.h"
#include "verify/fuzzer.h"
#include "verify/shard.h"

namespace perfbench {
namespace {

// Process start as this binary sees it: the earliest dynamic initializer.
__attribute__((init_priority(101))) const Clock::time_point g_process_start = Clock::now();

// ---- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool setup_only = false;
  std::string workloads_dir = "perfbench/workloads";
  std::string trace_out;
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--scale F] [--setup-only] [--workloads DIR] [--trace-out FILE]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

double parse_number(const char* argv0, const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0) {
    usage(argv0, std::string(flag) + " expects a non-negative number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = next();
    } else if (flag == "--seed") {
      const char* text = next();
      char* end = nullptr;
      args.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') usage(argv[0], "--seed expects an integer");
    } else if (flag == "--seconds") {
      args.seconds = parse_number(argv[0], "--seconds", next());
    } else if (flag == "--trace") {
      const std::string value = next();
      if (value != "0" && value != "1") usage(argv[0], "--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.scale = parse_number(argv[0], "--scale", next());
      if (args.scale <= 0) usage(argv[0], "--scale must be positive");
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--workloads") {
      args.workloads_dir = next();
    } else if (flag == "--trace-out") {
      args.trace_out = next();
    } else {
      usage(argv[0], "unknown flag '" + flag + "'");
    }
  }
  if (args.workload.empty()) usage(argv[0], "--workload is required");
  return args;
}

// ---- workloads ---------------------------------------------------------------

/// How a workload's passes execute.  The spec lines and the reason each
/// workload exists live in perfbench/workloads/<name>.txt.
struct WorkloadDef {
  const char* name;
  bool fabric;  ///< served by a RemoteExecutor to in-process workers
  int threads;  ///< run_sweep executor threads, or fabric workers (1 thread each)
};

constexpr WorkloadDef kWorkloads[] = {
    {"ring-tables", false, 2},
    {"network-sync", false, 2},
    {"fabric-transcripts", true, 2},
};

struct Workload {
  WorkloadDef def{};
  fle::SweepSpec sweep;       ///< as the spec file wrote it (engine as written)
  std::uint64_t trials = 0;   ///< trials per pass
  double parse_spec_s = 0.0;  ///< parse_spec over every line, during set-up
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Reads the workload's spec lines, appends each line's derived seed, and
/// parses them inside one verify.parse_spec span.
Workload load_workload(const Args& args, Tracer& tracer) {
  Workload workload;
  bool found = false;
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == def.name) {
      workload.def = def;
      found = true;
    }
  }
  if (!found) throw std::invalid_argument("unknown workload '" + args.workload + "'");

  const std::string path = args.workloads_dir + "/" + args.workload + ".txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read workload file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("seed=", 0) == 0 || line.find(" seed=") != std::string::npos) {
      throw std::invalid_argument(path + ": spec lines take their seed from --seed: '" + line +
                                  "'");
    }
    line += " seed=" + std::to_string(splitmix64(args.seed * 1000003ull + lines.size()) >> 1);
    lines.push_back(std::move(line));
  }
  if (lines.empty()) throw std::invalid_argument(path + " holds no spec lines");

  {
    Scope span(tracer, "verify.parse_spec");
    const Clock::time_point start = Clock::now();
    for (const std::string& spec_line : lines) {
      workload.sweep.add(fle::verify::parse_spec(spec_line));
    }
    workload.parse_spec_s = seconds_between(start, Clock::now());
  }
  workload.sweep.threads = workload.def.threads;
  for (fle::ScenarioSpec& spec : workload.sweep.scenarios) {
    spec.trials = static_cast<std::size_t>(
        std::max(1.0, std::round(static_cast<double>(spec.trials) * args.scale)));
    workload.trials += spec.trials;
  }
  if (workload.def.fabric &&
      std::none_of(workload.sweep.scenarios.begin(), workload.sweep.scenarios.end(),
                   [](const fle::ScenarioSpec& spec) { return spec.record_transcripts; })) {
    throw std::invalid_argument(path + ": the fabric workload needs transcripts=1 rows");
  }
  return workload;
}

/// The spec line a shard row and a store scenario carry for `spec`.
std::string key_line(const fle::ScenarioSpec& spec) {
  return fle::verify::format_spec(fle::verify::shard_key_spec(spec));
}

// ---- passes ------------------------------------------------------------------

struct PassResult {
  double seconds = 0.0;  ///< the timed part: sweep + report (+ store build, open, sync)
  std::uint64_t allocations = 0;
  std::vector<fle::ScenarioResult> results;
  std::string report;
  std::string error;  ///< nonempty when the pass threw
  // Stage times, filled only when the pass was traced.
  double sweep_s = 0.0;
  double report_s = 0.0;
  double store_build_s = 0.0;
  double store_open_s = 0.0;
  double store_sync_s = 0.0;
  // Fabric workload only.
  fle::fabric::DedupStats dedup;
  std::uint64_t image_bytes = 0;
  double unique_blob_frac = 0.0;
  std::optional<fle::SyncReport> sync;
};

/// In-process fabric workers, joined on destruction.  Declare the fleet
/// BEFORE the RemoteExecutor it serves: the executor then dies first,
/// closing its sockets, so a worker still waiting on it returns and the
/// join cannot hang on an error path.
class WorkerFleet {
 public:
  WorkerFleet() = default;
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;
  ~WorkerFleet() {
    for (std::thread& thread : threads_) thread.join();
  }

  void start(std::uint16_t port, int workers) {
    for (int w = 0; w < workers; ++w) {
      fle::fabric::WorkerOptions options;
      options.port = port;
      options.threads = 1;
      options.label = "perfbench-" + std::to_string(w);
      options.read_timeout = std::chrono::milliseconds(20000);
      threads_.emplace_back([options] { (void)fle::fabric::run_worker(options); });
    }
  }

 private:
  std::vector<std::thread> threads_;
};

std::vector<fle::ScenarioResult> run_fabric_sweep(const Workload& workload,
                                                  fle::fabric::DedupStats& dedup) {
  WorkerFleet fleet;
  fle::fabric::FabricOptions options;
  options.planned_workers = static_cast<std::size_t>(workload.def.threads);
  auto executor = std::make_unique<fle::fabric::RemoteExecutor>(options);
  fleet.start(executor->port(), workload.def.threads);
  std::vector<fle::ScenarioResult> results = executor->run_sweep(workload.sweep);
  dedup = executor->dedup_stats();
  return results;
}

/// The reference a pass is checked against.
struct Reference {
  std::vector<std::string> rows;                ///< canonical report rows
  std::optional<fle::StoreReader> store;        ///< fabric: the --local store
};

std::vector<std::uint8_t> build_store(const Workload& workload,
                                      const std::vector<fle::ScenarioResult>& results,
                                      double* unique_blob_frac) {
  fle::StoreWriter writer;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].transcripts_recorded) continue;
    writer.add_scenario(key_line(workload.sweep.scenarios[i]), results[i].per_trial_transcript);
  }
  std::vector<std::uint8_t> image = writer.finish();
  if (unique_blob_frac != nullptr) {
    *unique_blob_frac =
        static_cast<double>(writer.unique_blobs()) / static_cast<double>(writer.trial_count());
  }
  return image;
}

PassResult run_pass(const Workload& workload, const Reference* reference, Tracer& tracer) {
  PassResult pass;
  const std::uint64_t allocations_before = allocation_count();
  const Clock::time_point start = Clock::now();
  try {
    if (workload.def.fabric) {
      Scope span(tracer, "fabric.run_sweep");
      pass.results = run_fabric_sweep(workload, pass.dedup);
      pass.sweep_s = span.close();
    } else {
      Scope span(tracer, "api.run_sweep");
      pass.results = fle::run_sweep(workload.sweep);
      pass.sweep_s = span.close();
    }
    {
      Scope span(tracer, "fabric.canonical_report");
      pass.report = fle::fabric::canonical_report(workload.sweep, pass.results);
      pass.report_s = span.close();
    }
    if (workload.def.fabric && reference != nullptr) {
      std::vector<std::uint8_t> image;
      {
        Scope span(tracer, "store.build");
        image = build_store(workload, pass.results, &pass.unique_blob_frac);
        pass.store_build_s = span.close();
      }
      pass.image_bytes = image.size();
      std::optional<fle::StoreReader> store;
      {
        Scope span(tracer, "store.open");
        store.emplace(fle::StoreReader::from_bytes(std::move(image)));
        pass.store_open_s = span.close();
      }
      {
        Scope span(tracer, "store.sync");
        pass.sync = fle::sync_stores(*store, *reference->store);
        pass.store_sync_s = span.close();
      }
    }
  } catch (const std::exception& error) {
    pass.error = error.what();
  }
  pass.seconds = seconds_between(start, Clock::now());
  pass.allocations = allocation_count() - allocations_before;
  return pass;
}

std::vector<std::string_view> split_rows(std::string_view report) {
  std::vector<std::string_view> rows;
  while (!report.empty()) {
    const std::size_t end = report.find('\n');
    rows.push_back(report.substr(0, end));
    if (end == std::string_view::npos) break;
    report.remove_prefix(end + 1);
  }
  return rows;
}

/// Scenarios of `pass` that fail their check: the whole pass when it
/// threw, each scenario whose canonical row differs from the reference,
/// and, with `check_store`, every scenario when the store sync is not
/// identical with zero node reads.
std::size_t count_failures(const Workload& workload, const Reference& reference,
                           const PassResult& pass, bool check_store) {
  const std::size_t scenarios = workload.sweep.scenarios.size();
  if (!pass.error.empty()) {
    std::fprintf(stderr, "perfbench: pass failed: %s\n", pass.error.c_str());
    return scenarios;
  }
  const std::vector<std::string_view> rows = split_rows(pass.report);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < scenarios; ++i) {
    if (i < rows.size() && i < reference.rows.size() && rows[i] == reference.rows[i]) continue;
    if (failed == 0) {
      std::fprintf(stderr, "perfbench: scenario %zu '%s' differs from the reference\n", i,
                   key_line(workload.sweep.scenarios[i]).c_str());
    }
    ++failed;
  }
  if (check_store) {
    const bool synced = pass.sync && pass.sync->identical && pass.sync->nodes_read_a == 0 &&
                        pass.sync->nodes_read_b == 0;
    if (!synced) {
      std::fprintf(stderr, "perfbench: store sync against the reference is not identical\n");
      failed = scenarios;
    }
  }
  return failed;
}

Reference compute_reference(const Workload& workload, Tracer& tracer) {
  const Scope span(tracer, "bench.reference");
  Reference reference;
  fle::SweepSpec sweep = workload.sweep;
  if (!workload.def.fabric) {
    // The scalar engines are the reference for every routing decision.
    for (fle::ScenarioSpec& spec : sweep.scenarios) spec.engine = fle::EngineKind::kScalar;
  }
  const std::vector<fle::ScenarioResult> results = fle::run_sweep(sweep);
  const std::string report = fle::fabric::canonical_report(workload.sweep, results);
  for (const std::string_view row : split_rows(report)) reference.rows.emplace_back(row);
  if (workload.def.fabric) {
    reference.store.emplace(fle::StoreReader::from_bytes(build_store(workload, results, nullptr)));
  }
  return reference;
}

// ---- statistics and routing ----------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Which scenarios the sweep's submission routes to the lane engines.
std::vector<bool> lane_routing(const fle::SweepSpec& sweep) {
  std::vector<bool> lanes;
#if PERFBENCH_HAS_SHAPE_CENSUS
  fle::ShapeCensus census;
  for (const fle::ScenarioSpec& spec : sweep.scenarios) census.add(spec);
  for (const fle::ScenarioSpec& spec : sweep.scenarios) {
    lanes.push_back(fle::route_to_lanes(spec, census));
  }
#else
  for (const fle::ScenarioSpec& spec : sweep.scenarios) {
    lanes.push_back(spec.engine == fle::EngineKind::kLanes ||
                    (spec.engine == fle::EngineKind::kAuto && fle::lane_eligible(spec)));
  }
#endif
  return lanes;
}

/// Engine paths a trial can take.  ring_analytic holds the lane-routed
/// shapes DESIGN.md §10's fast-path inventory serves by a closed form once
/// primed (token-sum, chang-roberts, deviated-constant): their rate is not
/// engine speed.
enum class Path {
  kRingScalar,
  kRingLanes,
  kRingAnalytic,
  kGraph,
  kSyncScalar,
  kSyncLanes,
  kTurnGame,
};

/// Per Path: the sim.<metric>.* metric prefix and the span its probes record
/// under (turn games belong to the trees/fullinfo layer).
struct PathName {
  const char* metric;
  const char* span;
};
constexpr PathName kPathNames[] = {
    {"ring_scalar", "sim.ring_scalar"}, {"ring_lanes", "sim.ring_lanes"},
    {"ring_analytic", "sim.ring_analytic"}, {"graph", "sim.graph"},
    {"sync_scalar", "sim.sync_scalar"}, {"sync_lanes", "sim.sync_lanes"},
    {"turn_game", "trees.turn_game"},
};
constexpr std::size_t kPathCount = std::size(kPathNames);

/// Every layer a span name can start with, in report order.
constexpr const char* kLayers[] = {"verify", "api", "sim", "trees", "fabric", "store", "bench"};

/// The shapes whose lane engine arms a fast path (LaneEngine's
/// resolve_fast_kind): round-robin, not transcribing, and honest
/// basic-lead / alead-uni (token-sum) or chang-roberts, basic-single on
/// basic-lead, or rushing on alead-uni (deviated-constant).
bool served_by_closed_form(const fle::ScenarioSpec& spec) {
  if (spec.scheduler != fle::SchedulerKind::kRoundRobin || spec.record_transcripts) return false;
  if (spec.deviation.empty()) {
    return spec.protocol == "basic-lead" || spec.protocol == "alead-uni" ||
           spec.protocol == "chang-roberts";
  }
  return (spec.deviation == "basic-single" && spec.protocol == "basic-lead") ||
         (spec.deviation == "rushing" && spec.protocol == "alead-uni");
}

std::optional<Path> classify(const fle::ScenarioSpec& spec, bool lanes) {
  switch (spec.topology) {
    case fle::TopologyKind::kRing:
      if (!lanes) return Path::kRingScalar;
      return served_by_closed_form(spec) ? Path::kRingAnalytic : Path::kRingLanes;
    case fle::TopologyKind::kGraph:
      return Path::kGraph;
    case fle::TopologyKind::kSync:
      return lanes ? Path::kSyncLanes : Path::kSyncScalar;
    case fle::TopologyKind::kTree:
    case fle::TopologyKind::kFullInfo:
      return Path::kTurnGame;
    case fle::TopologyKind::kThreaded:
      return std::nullopt;
  }
  return std::nullopt;
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-34s %.6g %s%s%s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.empty() ? "" : "  # ", metric.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double finite = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", finite);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- per-layer probes (traced run only) ----------------------------------------

struct Probe {
  double seconds = 0.0;
  std::uint64_t allocations = 0;
};

/// Times `body` inside span `name`; allocations are counted inside the
/// span so the tracer's own bookkeeping is excluded.
Probe probe(Tracer& tracer, const char* name, const std::function<void()>& body) {
  Scope span(tracer, name);
  const std::uint64_t allocations_before = allocation_count();
  const Clock::time_point start = Clock::now();
  body();
  Probe result;
  result.seconds = seconds_between(start, Clock::now());
  result.allocations = allocation_count() - allocations_before;
  return result;
}

/// Median of `body` over up to 3 repetitions, stopping early once 2 s are
/// spent: short probes get a median, long ones run once.
double median_seconds(Tracer& tracer, const char* name, const std::function<void()>& body) {
  constexpr std::size_t kReps = 3;
  constexpr double kBudgetSeconds = 2.0;
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.empty() || (samples.size() < kReps && spent < kBudgetSeconds)) {
    samples.push_back(probe(tracer, name, body).seconds);
    spent += samples.back();
  }
  return median(samples);
}

/// The per-layer metrics: medians over the traced timed passes (`traced`;
/// the newest still holds its results and report) plus probes that each
/// run one layer alone.
std::vector<Metric> layer_metrics(const Workload& workload, const std::vector<PassResult>& traced,
                                  Tracer& tracer) {
  const fle::SweepSpec& sweep = workload.sweep;
  const PassResult& last = traced.back();
  const double trials = static_cast<double>(workload.trials);
  std::vector<Metric> metrics;
  const auto add = [&metrics](std::string name, double value, std::string unit,
                              std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  };
  const auto traced_median = [&traced](double PassResult::*field) {
    std::vector<double> values;
    for (const PassResult& pass : traced) values.push_back(pass.*field);
    return median(values);
  };

  add("verify.parse_spec_s", workload.parse_spec_s, "s", "spec lines parsed during set-up");

  // api: routing share, batched vs serial, thread scaling.
  const std::vector<bool> lanes = lane_routing(sweep);
  double lane_trials = 0.0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i]) lane_trials += static_cast<double>(sweep.scenarios[i].trials);
  }
  double sweep_s = 0.0;
  double local_transcripts_s = 0.0;
  if (workload.def.fabric) {
    local_transcripts_s =
        median_seconds(tracer, "api.run_sweep", [&] { (void)fle::run_sweep(sweep); });
    sweep_s = local_transcripts_s;
  } else {
    sweep_s = traced_median(&PassResult::sweep_s);
  }
  const Probe serial = probe(tracer, "bench.serial", [&] {
    for (fle::ScenarioSpec spec : sweep.scenarios) {
      spec.threads = sweep.threads;
      const Scope span(tracer, "api.run_scenario");
      (void)fle::run_scenario(spec);
    }
  });
  fle::SweepSpec one_thread = sweep;
  one_thread.threads = 1;
  const double one_thread_s =
      median_seconds(tracer, "api.run_sweep", [&] { (void)fle::run_sweep(one_thread); });
  add("api.lanes_weight_frac", lane_trials / trials, "ratio", "trials routed to lanes");
  add("api.sweep_s", sweep_s, "s", "run_sweep at " + std::to_string(sweep.threads) + " threads");
  add("api.serial_s", serial.seconds, "s", "one run_scenario per spec, same threads");
  add("api.batch_gain", sweep_s > 0 ? serial.seconds / sweep_s : 0.0, "ratio",
      "serial_s / sweep_s");
  add("api.scaling_eff", sweep_s > 0 ? one_thread_s / (2.0 * sweep_s) : 0.0, "ratio",
      "throughput at 2 threads / (2 x at 1 thread)");

  // sim: every scenario alone at threads=1, pinned to the engine the sweep
  // routed it to.
  struct PathTotals {
    double seconds = 0.0;
    double trials = 0.0;
    double allocations = 0.0;
  };
  std::vector<PathTotals> paths(kPathCount);
  double path_seconds = 0.0;
  for (std::size_t i = 0; i < sweep.scenarios.size(); ++i) {
    fle::ScenarioSpec spec = sweep.scenarios[i];
    const std::optional<Path> path = classify(spec, lanes[i]);
    if (!path) continue;
    spec.threads = 1;
    if (spec.topology == fle::TopologyKind::kRing || spec.topology == fle::TopologyKind::kSync) {
      spec.engine = lanes[i] ? fle::EngineKind::kLanes : fle::EngineKind::kScalar;
    }
    const PathName& name = kPathNames[static_cast<std::size_t>(*path)];
    const Probe alone = probe(tracer, name.span, [&] { (void)fle::run_scenario(spec); });
    PathTotals& totals = paths[static_cast<std::size_t>(*path)];
    totals.seconds += alone.seconds;
    totals.trials += static_cast<double>(spec.trials);
    totals.allocations += static_cast<double>(alone.allocations);
    path_seconds += alone.seconds;
  }
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const PathTotals& totals = paths[p];
    const std::string prefix = std::string("sim.") + kPathNames[p].metric;
    const bool ran = totals.trials > 0;
    add(prefix + ".trials_per_s", ran ? totals.trials / totals.seconds : 0.0, "1/s",
        ran ? "" : "no scenario on this path");
    add(prefix + ".time_share", path_seconds > 0 ? totals.seconds / path_seconds : 0.0, "ratio");
    add(prefix + ".allocs_per_trial", ran ? totals.allocations / totals.trials : 0.0, "count");
  }

  // Transcript capture and the fabric, against the local sweep.
  if (workload.def.fabric) {
    fle::SweepSpec bare = sweep;
    for (fle::ScenarioSpec& spec : bare.scenarios) spec.record_transcripts = false;
    const double bare_s =
        median_seconds(tracer, "api.run_sweep", [&] { (void)fle::run_sweep(bare); });
    add("sim.transcript_overhead", bare_s > 0 ? local_transcripts_s / bare_s : 0.0, "ratio",
        "local sweep with transcripts / without");
    const double fabric_s = traced_median(&PassResult::sweep_s);
    add("fabric.sweep_s", fabric_s, "s", "RemoteExecutor + 2 loopback workers");
    add("fabric.overhead", local_transcripts_s > 0 ? fabric_s / local_transcripts_s : 0.0,
        "ratio", "fabric / local run_sweep");
  } else {
    add("sim.transcript_overhead", 0.0, "ratio", "workload records no transcripts");
    add("fabric.sweep_s", 0.0, "s", "not a fabric workload");
    add("fabric.overhead", 0.0, "ratio", "not a fabric workload");
  }
  const PassResult& first = traced.front();
  add("fabric.keys_offered", static_cast<double>(first.dedup.keys_offered), "count");
  add("fabric.blobs_shipped", static_cast<double>(first.dedup.blobs_shipped), "count");
  add("fabric.blobs_reused", static_cast<double>(first.dedup.blobs_reused), "count");

  // Shard rows and wire frames over the last pass's results.
  double format_s = 0.0;
  double parse_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double wire_bytes = 0.0;
  for (std::size_t i = 0; i < last.results.size(); ++i) {
    fle::verify::ShardRow row;
    row.case_index = i;
    row.spec_line = key_line(sweep.scenarios[i]);
    row.result = last.results[i];
    row.result.wall_seconds = 0.0;
    std::string text;
    format_s += probe(tracer, "verify.format_shard_row",
                      [&] { text = fle::verify::format_shard_row(row); }).seconds;
    parse_s += probe(tracer, "verify.parse_shard_row",
                     [&] { (void)fle::verify::parse_shard_row(text); }).seconds;
    fle::fabric::ResultMsg message;
    message.window = i;
    message.row = std::move(text);
    std::vector<std::uint8_t> frame;
    encode_s += probe(tracer, "fabric.encode_frame",
                      [&] { frame = fle::fabric::encode_frame(message); }).seconds;
    wire_bytes += static_cast<double>(frame.size());
    decode_s += probe(tracer, "fabric.try_parse_frame", [&] {
      const std::optional<fle::fabric::FrameParse> parsed = fle::fabric::try_parse_frame(frame);
      if (!parsed || parsed->consumed != frame.size() || parsed->frame.result.row != message.row) {
        throw std::runtime_error("wire frame of scenario " + std::to_string(i) +
                                 " did not round-trip");
      }
    }).seconds;
  }
  add("fabric.wire_encode_s", encode_s, "s", "encode_frame over the pass's result rows");
  add("fabric.wire_decode_s", decode_s, "s", "try_parse_frame over the same frames");
  add("fabric.wire_bytes", wire_bytes, "B");
  add("fabric.report_s", traced_median(&PassResult::report_s), "s", "canonical_report");
  add("fabric.report_bytes", static_cast<double>(last.report.size()), "B");
  add("verify.shard_format_s", format_s, "s", "format_shard_row over the pass's results");
  add("verify.shard_parse_s", parse_s, "s", "parse_shard_row over the same rows");

  add("store.build_s", traced_median(&PassResult::store_build_s), "s");
  add("store.image_bytes", static_cast<double>(first.image_bytes), "B");
  add("store.unique_blob_frac", first.unique_blob_frac, "ratio");
  add("store.open_s", traced_median(&PassResult::store_open_s), "s");
  add("store.sync_s", traced_median(&PassResult::store_sync_s), "s");
  add("store.sync_nodes_read",
      first.sync ? static_cast<double>(first.sync->nodes_read_a + first.sync->nodes_read_b) : 0.0,
      "count", "0 when the stores are identical");
  return metrics;
}

// ---- main --------------------------------------------------------------------

int run(const Args& args) {
  const double load_before = load_average();
  const int cpus = cpu_count();
  Tracer tracer(args.trace);
  Tracer untraced(false);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.scale);
  std::printf("host nproc=%d load_before=%.2f %s\n", cpus, load_before, build_context().c_str());

  // ---- set-up: registries, spec parsing, executor pool, warm-up pass.
  Workload workload;
  PassResult warmup;
  {
    const Scope setup_span(tracer, "bench.setup");
    {
      const Scope span(tracer, "api.register_builtin_scenarios");
      fle::register_builtin_scenarios();
    }
    workload = load_workload(args, tracer);
    const Scope span(tracer, "bench.warmup_pass");
    // The warm-up renders and checks like a timed pass but skips the store
    // round-trip: the reference store does not exist yet.
    warmup = run_pass(workload, nullptr, tracer);
  }
  const double setup_s = seconds_between(g_process_start, Clock::now());
  std::printf("workload %s: %zu scenarios, %llu trials per pass, %d %s\n", workload.def.name,
              workload.sweep.scenarios.size(), static_cast<unsigned long long>(workload.trials),
              workload.def.threads, workload.def.fabric ? "loopback workers" : "executor threads");
  if (args.setup_only) {
    const bool ok = warmup.error.empty();
    print_result(ok, 1, ok ? 0 : 1,
                 {Metric{"setup_s", setup_s, "s", "process start to warm-up end"}});
    return ok ? 0 : 1;
  }

  // ---- reference (outside set-up and outside the timed passes).
  const Reference reference = compute_reference(workload, tracer);
  const std::size_t scenarios = workload.sweep.scenarios.size();
  std::uint64_t attempted = scenarios;
  // The warm-up ran before the reference store existed: check its rows only.
  std::uint64_t failed = count_failures(workload, reference, warmup, false);
  warmup = PassResult{};

  // ---- timed passes.  A traced run alternates traced and untraced passes,
  // so the tracing overhead is a same-run ratio.
  std::vector<double> rates;         // untraced passes: trials / pass seconds
  std::vector<double> traced_rates;  // traced passes
  std::vector<PassResult> traced;  // only the newest keeps its results and report
  std::uint64_t timed_trials = 0;
  std::uint64_t timed_allocations = 0;
  const Clock::time_point timed_start = Clock::now();
  const std::size_t min_passes = args.trace ? 2 : 1;
  for (std::size_t p = 0;; ++p) {
    const bool traced_pass = args.trace && p % 2 == 0;
    PassResult pass;
    {
      const Scope span(tracer, traced_pass ? "bench.pass" : "bench.untraced_pass");
      pass = run_pass(workload, &reference, traced_pass ? tracer : untraced);
      const Scope check(tracer, "bench.check");
      attempted += scenarios;
      failed += count_failures(workload, reference, pass, workload.def.fabric);
    }
    const double rate = static_cast<double>(workload.trials) / pass.seconds;
    if (traced_pass) {
      traced_rates.push_back(rate);
      if (!traced.empty()) {
        traced.back().results.clear();
        traced.back().report.clear();
      }
      traced.push_back(std::move(pass));
    } else {
      rates.push_back(rate);
      timed_trials += workload.trials;
      timed_allocations += pass.allocations;
    }
    if (p + 1 >= min_passes && seconds_between(timed_start, Clock::now()) >= args.seconds) break;
  }

  std::vector<Metric> metrics;
  const double trials_per_s = median(rates);
  if (!args.trace) {
    metrics.push_back(Metric{"trials_per_s", trials_per_s, "1/s",
                             "median of " + std::to_string(rates.size()) + " timed passes"});
    metrics.push_back(Metric{"setup_s", setup_s, "s", "process start to warm-up end"});
    metrics.push_back(Metric{"peak_rss_mib", peak_rss_mib(), "MiB", ""});
    const double allocs_per_trial =
        static_cast<double>(timed_allocations) / static_cast<double>(timed_trials);
    metrics.push_back(Metric{"allocs_per_trial", allocs_per_trial, "count",
                             "operator new calls over the timed passes"});
    const double ok_frac =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    metrics.push_back(Metric{"ok_frac", ok_frac, "ratio",
                             "1 - fail_frac; fail_frac = " + std::to_string(failed) + "/" +
                                 std::to_string(attempted)});
  } else {
    {
      const Scope span(tracer, "bench.probes");
      metrics = layer_metrics(workload, traced, tracer);
    }
    const double traced_rate = median(traced_rates);
    const double wall_s = seconds_between(g_process_start, Clock::now());
    std::map<std::string, double> self = tracer.self_seconds_by_layer();
    double self_total = 0.0;
    for (const auto& [layer, seconds] : self) self_total += seconds;
    for (const char* layer : kLayers) {
      metrics.push_back(Metric{std::string(layer) + ".self_s", self[layer], "s", ""});
    }
    metrics.push_back(Metric{"trace.wall_s", wall_s, "s", "process start to end of probes"});
    metrics.push_back(Metric{"trace.remainder_s", wall_s - self_total, "s",
                             "wall time no span covers"});
    metrics.push_back(Metric{"trace.overhead",
                             trials_per_s > 0 ? (trials_per_s - traced_rate) / trials_per_s : 0.0,
                             "ratio", "(untraced - traced) / untraced trials_per_s, same run"});
    if (!args.trace_out.empty()) tracer.write_json(args.trace_out, g_process_start);
  }

  if (!rates.empty()) {
    std::vector<double> sorted = rates;
    std::sort(sorted.begin(), sorted.end());
    std::printf("pass trials_per_s (untraced, %zu passes): min %.6g  median %.6g  max %.6g\n",
                sorted.size(), sorted.front(), median(sorted), sorted.back());
  }
  const double load_after = load_average();
  std::printf("host load_after=%.2f passes=%zu%s\n", load_after,
              rates.size() + traced_rates.size(),
              args.trace ? " (alternating traced/untraced)" : "");
  if (std::max(load_before, load_after) > cpus) {
    std::printf("WARNING: load average %.2f exceeds the %d CPUs; figures are contended\n",
                std::max(load_before, load_after), cpus);
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
