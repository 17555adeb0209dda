#include "perf/task_pool.h"

#include <cstdlib>
#include <memory>

namespace robustqo {
namespace perf {

namespace {

unsigned ResolveCount(unsigned n) {
  if (n == 0) n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned InitialThreadCount() {
  const char* env = std::getenv("RQO_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  return ResolveCount(static_cast<unsigned>(std::strtoul(env, nullptr, 10)));
}

std::mutex g_global_mu;
unsigned g_thread_count = 0;  // 0 = not yet initialised from the env
std::unique_ptr<TaskPool> g_pool;

// True while this thread runs a pool task. A batch started from inside a
// task runs inline: the pool's batch state belongs to the outer batch.
thread_local bool t_in_task = false;

// Marks the calling thread as running pool tasks for its lifetime.
class TaskScope {
 public:
  TaskScope() : saved_(t_in_task) { t_in_task = true; }
  ~TaskScope() { t_in_task = saved_; }

 private:
  const bool saved_;
};

}  // namespace

unsigned ThreadCount() {
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_thread_count == 0) g_thread_count = InitialThreadCount();
  return g_thread_count;
}

void SetThreadCount(unsigned n) {
  std::lock_guard<std::mutex> lock(g_global_mu);
  g_thread_count = ResolveCount(n);
  if (g_pool != nullptr && g_pool->threads() != g_thread_count) g_pool.reset();
}

uint64_t TaskSeed(uint64_t base_seed, uint64_t index) {
  // splitmix64 over (base, index): well-mixed, platform-independent, and a
  // different stream for every index no matter how tasks land on workers.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TaskPool::TaskPool(unsigned threads) : threads_(ResolveCount(threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::WorkerLoop() {
  // Workers are numbered 1..threads-1; worker id 0 is the batch's caller.
  TaskScope scope;
  uint64_t seen_batch = 0;
  unsigned my_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    my_id = ++worker_ids_issued_;
  }
  for (;;) {
    const std::function<void(unsigned, size_t)>* fn = nullptr;
    size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || (batch_fn_ != nullptr && batch_id_ != seen_batch);
      });
      if (shutdown_) return;
      seen_batch = batch_id_;
      fn = batch_fn_;
      n = batch_size_;
    }
    for (;;) {
      const size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(my_id, i);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
    }
    work_done_.notify_all();
  }
}

void TaskPool::RunBatch(size_t n,
                        const std::function<void(unsigned, size_t)>& fn) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1 || t_in_task) {
    TaskScope scope;
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_fn_ = &fn;
    batch_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    completed_ = 0;
    ++batch_id_;
  }
  work_ready_.notify_all();
  // The caller is worker 0 and drains alongside the pool.
  {
    TaskScope scope;
    for (;;) {
      const size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      fn(0, i);
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    work_done_.wait(lock, [&] { return completed_ == workers_.size(); });
    batch_fn_ = nullptr;
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  RunBatch(n, [&fn](unsigned /*worker*/, size_t i) { fn(i); });
}

void TaskPool::ParallelForWorker(
    size_t n, const std::function<void(unsigned, size_t)>& fn) {
  RunBatch(n, fn);
}

TaskPool* TaskPool::Global() {
  const unsigned want = ThreadCount();
  std::lock_guard<std::mutex> lock(g_global_mu);
  if (g_pool == nullptr || g_pool->threads() != want) {
    g_pool = std::make_unique<TaskPool>(want);
  }
  return g_pool.get();
}

}  // namespace perf
}  // namespace robustqo
