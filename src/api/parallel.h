#pragma once
// The trial executor: one persistent worker pool serving every scenario in
// the process.
//
// A submission is a set of Batches (one per scenario); every batch's trials
// are decomposed into chunk jobs served from ONE shared queue, so a worker
// that drains a small scenario immediately steals chunks from whichever
// scenario still has work — the cross-scenario balancing run_sweep
// (api/sweep.h) is built on.
//
// A batch has exactly one body, called once per chunk with the chunk's
// local trial range [begin, end) and the worker's workspace.  The executor
// knows nothing about seeds or results: the scenario layer's bodies derive
// each trial's seed from its global index and write each trial into its own
// slot, and the caller reduces slots in trial order, so results are
// bit-identical for every worker count and every chunking (DESIGN.md §3,
// §6).
//
// Workspace caching (DESIGN.md §4/§6): a batch with a workspace factory
// names a WorkspaceKey — (engine family, ring size).  Every executor thread
// keeps a persistent cache of workspaces keyed that way, so two scenarios
// with the same shape reuse one engine + strategy arena per worker even
// across run_scenario / run_sweep calls.  Because trials are independent
// and seeds are per-trial, which worker (and hence which workspace) runs a
// chunk cannot affect its result.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace fle {

/// Builds one per-worker workspace.
using WorkspaceFactory = std::function<std::shared_ptr<void>()>;

/// Cache key for per-thread workspace reuse across scenarios.  The scenario
/// layer (api/scenario.cpp) assigns one `family` per workspace type.
/// Batches sharing a key MUST use workspace objects of the same dynamic
/// type, sized only by `n`.
struct WorkspaceKey {
  int family = 0;
  int n = 0;
};

/// The persistent trial executor.  One process-wide instance (shared())
/// serves every run_scenario and run_sweep call; worker threads are spawned
/// lazily up to the largest parallelism any submission asked for.
class Executor {
 public:
  /// Executes local trials [begin, end) of the batch.  `workspace` is this
  /// worker's cached workspace, or null when the batch has no factory.
  using Body = std::function<void(std::size_t begin, std::size_t end, void* workspace)>;

  /// One scenario's trials, ready to execute.
  struct Batch {
    std::size_t trials = 0;           ///< local trials [0, trials)
    WorkspaceKey workspace;           ///< cache key for make_workspace's objects
    WorkspaceFactory make_workspace;  ///< empty = stateless body
    Body body;
  };

  Executor();
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor every scenario runs on.
  static Executor& shared();

  /// Runs every batch to completion on up to `threads` workers (0 = one per
  /// hardware core; the calling thread always participates).  Batches are
  /// split into jobs of executor_auto_chunk trials served from one shared
  /// queue.  The first exception thrown by a body or workspace factory is
  /// rethrown here after the queue drains.  Submissions from other threads
  /// are serialized; a body that re-enters run() executes its batches inline
  /// on the calling thread (no deadlock, no extra parallelism).
  void run(std::span<Batch> batches, int threads);

 private:
  struct Job {
    Batch* batch = nullptr;
    std::size_t begin = 0;  ///< local trial indices [begin, end)
    std::size_t end = 0;
  };
  struct Submission;

  void worker_main();
  static void execute_jobs(Submission& submission);
  void ensure_pool(std::size_t workers);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The executor's chunking policy: enough jobs for every worker to get
/// several, capped so tiny batches still split and huge ones don't flood
/// the queue.  Shared with the fabric driver (src/fabric/driver.h), whose
/// network trial windows are the same unit of work — one policy, two
/// transports.
std::size_t executor_auto_chunk(std::size_t trials, std::size_t workers);

}  // namespace fle
