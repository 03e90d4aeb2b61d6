#include "api/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace fle {

std::size_t executor_auto_chunk(std::size_t trials, std::size_t workers) {
  workers = std::max<std::size_t>(workers, 1);
  return std::clamp<std::size_t>(trials / (workers * 4), 1, 1024);
}

namespace {

/// Per-thread persistent workspace cache (pool workers and submitting
/// threads alike).  Keyed by (family, n); entries live until the thread
/// exits.  The cap bounds pathological sweeps over hundreds of distinct
/// ring sizes — on overflow the whole cache is dropped and rebuilt on
/// demand, which costs a re-warm, never correctness.
constexpr std::size_t kWorkspaceCacheCap = 64;
thread_local std::map<std::pair<int, int>, std::shared_ptr<void>> t_workspace_cache;

/// True on executor pool threads and inside a running submission on the
/// submitting thread: a nested Executor::run must execute inline.
thread_local bool t_inside_executor = false;

std::shared_ptr<void> cached_workspace(const WorkspaceKey& key,
                                       const WorkspaceFactory& make) {
  auto& slot = t_workspace_cache[{key.family, key.n}];
  if (!slot) {
    if (t_workspace_cache.size() > kWorkspaceCacheCap) {
      t_workspace_cache.clear();
      return t_workspace_cache[{key.family, key.n}] = make();
    }
    slot = make();
  }
  return slot;
}

}  // namespace

struct Executor::Submission {
  std::vector<Job> jobs;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> jobs_done{0};
  std::atomic<bool> failed{false};
  std::size_t max_workers = 1;
  std::size_t joined = 1;  ///< worker slots handed out (slot 0 = submitter)
  std::size_t active = 0;  ///< pool workers currently inside execute_jobs
  std::exception_ptr error;
  std::mutex error_mutex;
};

struct Executor::Impl {
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::mutex submit_mutex;  ///< serializes submissions from different threads
  std::vector<std::thread> pool;
  Submission* current = nullptr;
  std::uint64_t generation = 0;
  bool stop = false;
};

Executor::Executor() : impl_(std::make_unique<Impl>()) {}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& thread : impl_->pool) thread.join();
}

Executor& Executor::shared() {
  static Executor instance;
  return instance;
}

void Executor::ensure_pool(std::size_t workers) {
  // Bound the pool: beyond this, extra requested workers just share the
  // queue slots (results are worker-count independent anyway).
  constexpr std::size_t kPoolCap = 64;
  workers = std::min(workers, kPoolCap);
  while (impl_->pool.size() < workers) {
    impl_->pool.emplace_back([this] { worker_main(); });
  }
}

void Executor::execute_jobs(Submission& submission) {
  for (;;) {
    const std::size_t j = submission.cursor.fetch_add(1, std::memory_order_relaxed);
    if (j >= submission.jobs.size()) return;
    const Job& job = submission.jobs[j];
    // After a failure the queue is drained without executing: counts stay
    // exact, the error is rethrown by the submitter.
    if (!submission.failed.load(std::memory_order_relaxed)) {
      try {
        const Batch& batch = *job.batch;
        std::shared_ptr<void> workspace;
        if (batch.make_workspace) {
          workspace = cached_workspace(batch.workspace, batch.make_workspace);
        }
        batch.body(job.begin, job.end, workspace.get());
      } catch (...) {
        const std::lock_guard<std::mutex> lock(submission.error_mutex);
        if (!submission.error) submission.error = std::current_exception();
        submission.failed.store(true, std::memory_order_relaxed);
      }
    }
    submission.jobs_done.fetch_add(1, std::memory_order_release);
  }
}

void Executor::worker_main() {
  t_inside_executor = true;
  std::uint64_t seen = 0;
  for (;;) {
    Submission* submission = nullptr;
    {
      std::unique_lock<std::mutex> lock(impl_->mutex);
      impl_->work_cv.wait(lock, [&] {
        return impl_->stop || (impl_->current != nullptr && impl_->generation != seen);
      });
      if (impl_->stop) return;
      seen = impl_->generation;
      submission = impl_->current;
      if (submission->joined >= submission->max_workers) continue;
      ++submission->joined;
      ++submission->active;
    }
    execute_jobs(*submission);
    {
      const std::lock_guard<std::mutex> lock(impl_->mutex);
      --submission->active;
    }
    impl_->done_cv.notify_all();
  }
}

void Executor::run(std::span<Batch> batches, int threads) {
  if (threads < 0) {
    throw std::invalid_argument("threads must be >= 0 (0 = hardware concurrency); got " +
                                std::to_string(threads));
  }
  std::size_t total_trials = 0;
  for (const Batch& batch : batches) total_trials += batch.trials;
  if (total_trials == 0) return;

  std::size_t want = threads > 0 ? static_cast<std::size_t>(threads)
                                 : std::max(1u, std::thread::hardware_concurrency());
  want = std::min(want, total_trials);

  Submission submission;
  for (Batch& batch : batches) {
    const std::size_t job_size = executor_auto_chunk(batch.trials, want);
    for (std::size_t begin = 0; begin < batch.trials; begin += job_size) {
      submission.jobs.push_back(Job{&batch, begin, std::min(begin + job_size, batch.trials)});
    }
  }
  want = std::min(want, submission.jobs.size());
  submission.max_workers = want;

  // Inline paths: single worker, or a body re-entering the executor (a pool
  // worker or an already-submitting thread) — execute on this thread.
  if (want <= 1 || t_inside_executor) {
    execute_jobs(submission);
    if (submission.error) std::rethrow_exception(submission.error);
    return;
  }

  const std::lock_guard<std::mutex> submit_lock(impl_->submit_mutex);
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    ensure_pool(want - 1);  // the submitter takes slot 0
    impl_->current = &submission;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();

  t_inside_executor = true;
  execute_jobs(submission);
  t_inside_executor = false;

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->done_cv.wait(lock, [&] {
      return submission.jobs_done.load(std::memory_order_acquire) >=
                 submission.jobs.size() &&
             submission.active == 0;
    });
    impl_->current = nullptr;
  }
  if (submission.error) std::rethrow_exception(submission.error);
}

}  // namespace fle
