// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// A deterministic fork-join task pool for the independent units of work
// that dominate this library's wall clock: the sample probes of a query's
// predicate set and the seeded configs of bench/chaos sweeps.
//
// The determinism contract (same as the fault injector's): results are
// bit-identical regardless of the thread count. The pool guarantees this
// by construction rather than by discipline:
//
//   * tasks are pure with respect to shared state — each task writes only
//     to its own pre-allocated output slot (ParallelFor/Map index i);
//   * reduction happens on the calling thread, in index order, after the
//     barrier — never in completion order;
//   * randomized tasks derive their stream from TaskSeed(base, i), a
//     per-index splitmix64 stream independent of which worker runs it.
//
// Thread count is a process-wide knob: SetThreadCount(), the RQO_THREADS
// environment variable (read once on first use), or `SET THREADS n` in the
// shell. The default is 1 — parallelism is opt-in, and a 1-thread pool
// runs every task inline on the caller with no worker threads at all.

#ifndef ROBUSTQO_PERF_TASK_POOL_H_
#define ROBUSTQO_PERF_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace robustqo {
namespace perf {

/// Process-wide worker count used by TaskPool::Global(). Initialised from
/// the RQO_THREADS environment variable on first read (default 1; 0 means
/// std::thread::hardware_concurrency()). Always >= 1.
unsigned ThreadCount();

/// Overrides the process-wide worker count. 0 selects the hardware
/// concurrency. Takes effect on the next TaskPool::Global() use.
void SetThreadCount(unsigned n);

/// Seed for task `index` of a batch seeded with `base_seed`: a splitmix64
/// stream over the index, so every task gets an independent RNG stream
/// that does not depend on which worker executes it.
uint64_t TaskSeed(uint64_t base_seed, uint64_t index);

/// Fixed-size fork-join pool. Construction spawns `threads - 1` workers
/// (the calling thread participates in every batch); a 1-thread pool has
/// no workers and runs batches inline. A batch started inside a pool task
/// (of any pool) also runs inline, on that task's thread as worker 0.
class TaskPool {
 public:
  explicit TaskPool(unsigned threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  unsigned threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and blocks until all complete.
  /// Tasks are claimed dynamically (atomic counter), so `fn` must write
  /// only to per-index state; the claim order is the only thing that
  /// varies across runs, and it is unobservable for pure tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelFor variant passing the executing worker's id in
  /// [0, threads()) — for tasks needing per-worker scratch (for example
  /// one Database per worker in the chaos harness). Worker 0 is the
  /// calling thread.
  void ParallelForWorker(
      size_t n, const std::function<void(unsigned worker, size_t index)>& fn);

  /// Maps [0, n) through `fn` into a vector in index order. The ordered
  /// reduction happens here, on the calling thread.
  template <typename T, typename Fn>
  std::vector<T> Map(size_t n, Fn&& fn) {
    std::vector<T> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

  /// The process-wide pool, sized to ThreadCount(). Rebuilt lazily when
  /// the knob changes. Never returns null.
  static TaskPool* Global();

 private:
  void WorkerLoop();
  void RunBatch(size_t n,
                const std::function<void(unsigned, size_t)>& fn);

  const unsigned threads_;
  std::vector<std::thread> workers_;

  // Batch state, published under mu_.
  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  uint64_t batch_id_ = 0;
  size_t batch_size_ = 0;
  const std::function<void(unsigned, size_t)>* batch_fn_ = nullptr;
  std::atomic<size_t> next_index_{0};
  size_t completed_ = 0;
  unsigned worker_ids_issued_ = 0;
  bool shutdown_ = false;
};

}  // namespace perf
}  // namespace robustqo

#endif  // ROBUSTQO_PERF_TASK_POOL_H_
