#include "exec/workspace.h"

#include <new>

namespace robustqo {
namespace exec {

namespace {

using Unit = std::max_align_t;

size_t Units(size_t bytes) { return (bytes + sizeof(Unit) - 1) / sizeof(Unit); }

}  // namespace

void* Workspace::Allocate(size_t bytes) {
  const size_t units = Units(bytes);
  const size_t rounded = units * sizeof(Unit);
  run_bytes_ += rounded;
  if (capacity_ - used_ >= rounded) {
    void* storage = reinterpret_cast<std::byte*>(block_.get()) + used_;
    used_ += rounded;
    return storage;
  }
  overflow_.push_back(std::make_unique_for_overwrite<Unit[]>(units));
  obtained_ += rounded;
  return overflow_.back().get();
}

void Workspace::Reset() {
  if (run_bytes_ > capacity_) {
    // realloc, not free and allocate: glibc raises its mmap and trim
    // thresholds when a large mapped chunk is freed, after which the rest
    // of the process keeps up to twice that much freed heap resident. When
    // tables grow between runs the block regrows often, and freeing it each
    // time raised the write workload's peak RSS by several MB; realloc
    // remaps the block instead. Its contents are dead, so a copy, where
    // realloc makes one, is only wasted work.
    void* grown = std::realloc(block_.get(), run_bytes_);
    if (grown == nullptr) throw std::bad_alloc();
    static_cast<void>(block_.release());  // realloc took the old block
    block_.reset(grown);
    capacity_ = run_bytes_;
    obtained_ += capacity_;
  }
  overflow_.clear();
  used_ = 0;
  run_bytes_ = 0;
  bytes_.taken = 0;
  rids_.taken = 0;
  ints_.taken = 0;
  doubles_.taken = 0;
}

}  // namespace exec
}  // namespace robustqo
