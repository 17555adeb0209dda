// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Workspace: the executor's per-row temporaries, kept across plan runs.
// Operators take every buffer whose size follows their input rows from the
// run's workspace rather than from the heap: scan masks and RID lists, the
// AND/OR fold masks of perf::BatchEvaluateMask, join key copies, hash chains
// and matched pairs, composed RID lists, the group-by's group ids and the
// gather's identity RIDs. The workspace keeps its memory when a run ends,
// so a warm run of a plan obtains no memory and faults in no page (the
// buffer discipline of Boncz et al., "MonetDB/X100", CIDR 2005, kept per
// worker as in Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014).
//
// Buffers are carved from one block by bumping an offset, and a run gives
// its whole block back at once. A run that outgrows the block takes the rest
// from the heap, and when it ends the block grows to what that run used. So
// a workspace keeps what its largest run needed (the high-water mark is the
// rule, not a tuned cap), and a run that fits obtains nothing.
//
// Contract:
//   * Reset() hands the whole block out afresh. Buffers taken since the
//     previous Reset() die with it, and so do the views into them (RidList,
//     raw pointers), as the RowSets that hold them already do. Run() resets
//     the workspace before and after each plan run.
//   * Take<T>(n) returns a buffer of n elements left unwritten: resizing
//     writes nothing, so an operator writes every element it reads.
//   * One workspace serves one run at a time. The query service keeps one
//     per task-pool worker, Database::ExecutePlan one for its sequential
//     path, and a context given none makes a fresh one that dies with it.
//   * Nothing observable depends on the workspace: results, row order, meter
//     charges and governor accounting are those of fresh buffers (the
//     governor charges modelled bytes, never buffer capacity).

#ifndef ROBUSTQO_EXEC_WORKSPACE_H_
#define ROBUSTQO_EXEC_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "perf/batch_eval.h"
#include "storage/table.h"

namespace robustqo {
namespace exec {

class Workspace;

/// Allocator of workspace buffers: carves storage from the workspace, gives
/// nothing back before the workspace's Reset(), and default-initializes, so
/// a resize writes no element.
template <typename T>
struct WorkspaceAllocator {
  using value_type = T;

  explicit WorkspaceAllocator(Workspace* owner) : workspace(owner) {}
  template <typename U>
  WorkspaceAllocator(const WorkspaceAllocator<U>& other)  // NOLINT: rebind
      : workspace(other.workspace) {}

  T* allocate(size_t n);
  void deallocate(T*, size_t) {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  template <typename U>
  bool operator==(const WorkspaceAllocator<U>& other) const {
    return workspace == other.workspace;
  }

  Workspace* workspace;
};

/// A workspace buffer: a vector whose storage lives in the workspace.
template <typename T>
using Buffer = std::vector<T, WorkspaceAllocator<T>>;
using RidBuffer = Buffer<storage::Rid>;

class Workspace {
 public:
  Workspace() = default;
  // Buffers point back at their workspace.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Frees every buffer at once; when the run since the last Reset()
  /// outgrew the block, the block grows to what that run used first.
  void Reset();

  /// A new buffer of `n` unwritten elements. T is uint8_t (masks),
  /// storage::Rid (RID lists, group ids), int64_t or double (key copies).
  template <typename T>
  Buffer<T>& Take(size_t n = 0) {
    Pool<T>& pool = PoolOf<T>();
    if (pool.taken == pool.buffers.size()) {
      pool.buffers.emplace_back(WorkspaceAllocator<T>(this));
    }
    Buffer<T>& buffer = pool.buffers[pool.taken++];
    // Drop whatever storage the buffer held in an earlier run.
    Buffer<T>(WorkspaceAllocator<T>(this)).swap(buffer);
    buffer.resize(n);
    return buffer;
  }

  /// `bytes` of storage, 16-byte aligned, valid until the next Reset().
  void* Allocate(size_t bytes);

  /// The fold masks perf::BatchEvaluateMask takes for AND/OR.
  perf::MaskScratch* mask_scratch() { return &masks_; }

  /// Bytes obtained from the heap since construction. A run that leaves
  /// this unchanged fitted in what earlier runs left.
  uint64_t bytes_obtained() const {
    return obtained_ + masks_.bytes_obtained();
  }

 private:
  // Buffer headers: a deque keeps the taken ones in place.
  template <typename T>
  struct Pool {
    std::deque<Buffer<T>> buffers;
    size_t taken = 0;
  };

  template <typename T>
  Pool<T>& PoolOf() {
    if constexpr (std::is_same_v<T, uint8_t>) {
      return bytes_;
    } else if constexpr (std::is_same_v<T, storage::Rid>) {
      return rids_;
    } else if constexpr (std::is_same_v<T, int64_t>) {
      return ints_;
    } else {
      static_assert(std::is_same_v<T, double>, "no workspace pool for T");
      return doubles_;
    }
  }

  struct Free {
    void operator()(void* bytes) const { std::free(bytes); }
  };
  using Chunk = std::unique_ptr<std::max_align_t[]>;

  std::unique_ptr<void, Free> block_;  // from std::malloc/std::realloc
  size_t capacity_ = 0;   // bytes in block_
  size_t used_ = 0;       // bytes of block_ handed out since Reset()
  size_t run_bytes_ = 0;  // bytes handed out since Reset(), block or heap
  std::vector<Chunk> overflow_;  // this run's storage past the block
  uint64_t obtained_ = 0;
  Pool<uint8_t> bytes_;
  Pool<storage::Rid> rids_;
  Pool<int64_t> ints_;
  Pool<double> doubles_;
  perf::MaskScratch masks_;
};

template <typename T>
T* WorkspaceAllocator<T>::allocate(size_t n) {
  return static_cast<T*>(workspace->Allocate(n * sizeof(T)));
}

}  // namespace exec
}  // namespace robustqo

#endif  // ROBUSTQO_EXEC_WORKSPACE_H_
