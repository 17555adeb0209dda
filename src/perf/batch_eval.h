// Copyright (c) robustqo authors. Licensed under the MIT license.
//
// Columnar batch predicate evaluation — the hot inner loop of sample-based
// estimation, and the selection step of the executor's scans and filters
// (exec::SelectRows). Instead of interpreting the expression tree once per
// tuple (a virtual Evaluate call plus boxed Value allocations per node per
// row), the batch evaluator walks the tree once and evaluates each leaf
// comparison as a tight loop over the native column arrays, producing a
// selection bitmap; AND/OR/NOT combine bitmaps, and the final popcount is
// the paper's `k`.
//
// Semantics are bit-for-bit those of the scalar path
// (ComparisonExpr/BetweenExpr::EvaluateBool): int64/date vs int64/date
// compares exactly, any double operand widens both sides to double, and
// strings compare lexicographically. A NaN operand follows IEEE 754: every
// comparison with it is false except `<>`, so `x BETWEEN lo AND hi` is
// false when x, lo or hi is NaN, while ±inf order as usual and -0.0 equals
// 0.0. Subtrees the kernels don't specialise (arithmetic, column-vs-column
// compares) fall back to per-row EvaluateBool inside the same bitmap, so
// any predicate the tree can evaluate, the batch evaluator can evaluate —
// property-tested against the scalar path in tests/perf/batch_eval_test.
//
// Kernel contract (docs/PERFORMANCE.md): each leaf kernel reads its column
// through a raw array and writes the mask through a raw byte pointer, both
// taken before the loop, and computes each row's byte with no branch.

#ifndef ROBUSTQO_PERF_BATCH_EVAL_H_
#define ROBUSTQO_PERF_BATCH_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "expr/expression.h"
#include "storage/table.h"

namespace robustqo {
namespace perf {

/// The scratch masks an AND or OR folds its children through: one per
/// nesting depth, each kept at the largest size asked of it. A caller that
/// evaluates many predicates (the executor's per-worker workspace) passes
/// the same one to every call, so a warm call allocates nothing.
class MaskScratch {
 public:
  /// At least `n` writable bytes for the fold at `depth`; distinct depths
  /// get distinct masks.
  uint8_t* At(size_t depth, size_t n);

  /// Bytes allocated since construction.
  uint64_t bytes_obtained() const { return obtained_; }

 private:
  struct Mask {
    std::unique_ptr<uint8_t[]> bytes;
    size_t size = 0;
  };
  std::vector<Mask> masks_;
  uint64_t obtained_ = 0;
};

/// Evaluates `predicate` over every row of `table` into `mask`, which holds
/// at least num_rows() bytes; every one of them is written (mask[i] == 1
/// iff row i satisfies), so the caller need not fill it. AND and OR fold
/// through `scratch`. Returns the popcount.
uint64_t BatchEvaluateMask(const expr::Expr& predicate,
                           const storage::Table& table, uint8_t* mask,
                           MaskScratch* scratch);

/// As above, into `mask` resized to the row count, with scratch masks that
/// last for the call.
uint64_t BatchEvaluateMask(const expr::Expr& predicate,
                           const storage::Table& table,
                           std::vector<uint8_t>* mask);

/// Popcount-only variant: drop-in replacement for expr::CountSatisfying.
uint64_t BatchCountSatisfying(const expr::Expr& predicate,
                              const storage::Table& table);

}  // namespace perf
}  // namespace robustqo

#endif  // ROBUSTQO_PERF_BATCH_EVAL_H_
