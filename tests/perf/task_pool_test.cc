// TaskPool: coverage, ordered reduction, worker ids, seeding, and the
// global thread-count knob.

#include "perf/task_pool.h"

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace robustqo {
namespace perf {
namespace {

TEST(TaskPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    TaskPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(TaskPoolTest, EmptyAndSingleBatches) {
  TaskPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(TaskPoolTest, MapPreservesIndexOrder) {
  TaskPool pool(4);
  std::vector<int> out =
      pool.Map<int>(100, [](size_t i) { return static_cast<int>(i * i); });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(TaskPoolTest, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract, in miniature: a seeded per-task computation
  // reduced in index order gives bit-identical results at every width.
  auto run = [](unsigned threads) {
    TaskPool pool(threads);
    std::vector<uint64_t> slots(64);
    pool.ParallelFor(slots.size(), [&](size_t i) {
      Rng rng(TaskSeed(42, i));
      uint64_t acc = 0;
      for (int k = 0; k < 100; ++k) acc += rng.Next();
      slots[i] = acc;
    });
    return slots;
  };
  const std::vector<uint64_t> expected = run(1);
  EXPECT_EQ(expected, run(2));
  EXPECT_EQ(expected, run(4));
  EXPECT_EQ(expected, run(8));
}

TEST(TaskPoolTest, WorkerIdsAreInRange) {
  TaskPool pool(4);
  std::vector<unsigned> worker_of(500);
  pool.ParallelForWorker(worker_of.size(),
                         [&](unsigned worker, size_t i) {
                           ASSERT_LT(worker, pool.threads());
                           worker_of[i] = worker;
                         });
  // All indices were assigned to some valid worker.
  for (unsigned w : worker_of) EXPECT_LT(w, 4u);
}

TEST(TaskPoolTest, TaskSeedStreamsAreDistinct) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) seeds.insert(TaskSeed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(TaskSeed(7, 0), TaskSeed(8, 0));
}

// A task that starts a batch on its own pool runs that batch inline
// instead of resetting the outer batch's shared state (which deadlocked).
TEST(TaskPoolTest, NestedBatchRunsInline) {
  TaskPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  pool.ParallelFor(8, [&](size_t) {
    outer.fetch_add(1);
    pool.ParallelFor(4, [&](size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
}

TEST(TaskPoolTest, GlobalPoolFollowsThreadCountKnob) {
  const unsigned before = ThreadCount();
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3u);
  EXPECT_EQ(TaskPool::Global()->threads(), 3u);
  SetThreadCount(1);
  EXPECT_EQ(TaskPool::Global()->threads(), 1u);
  SetThreadCount(before);
}

}  // namespace
}  // namespace perf
}  // namespace robustqo
