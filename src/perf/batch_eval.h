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
// Semantics are bit-for-bit those of the scalar path (Value::Compare):
// int64/date vs int64/date compares exactly, any double operand widens
// both sides to double, and strings compare lexicographically. Subtrees
// the kernels don't specialise (arithmetic, column-vs-column compares)
// fall back to per-row EvaluateBool inside the same bitmap, so any
// predicate the tree can evaluate, the batch evaluator can evaluate —
// property-tested against the scalar path in tests/perf/batch_eval_test.

#ifndef ROBUSTQO_PERF_BATCH_EVAL_H_
#define ROBUSTQO_PERF_BATCH_EVAL_H_

#include <cstdint>
#include <vector>

#include "expr/expression.h"
#include "storage/table.h"

namespace robustqo {
namespace perf {

/// Evaluates `predicate` over every row of `table` into `mask` (resized to
/// the row count; mask[i] == 1 iff row i satisfies). Returns the popcount.
uint64_t BatchEvaluateMask(const expr::Expr& predicate,
                           const storage::Table& table,
                           std::vector<uint8_t>* mask);

/// Popcount-only variant: drop-in replacement for expr::CountSatisfying.
uint64_t BatchCountSatisfying(const expr::Expr& predicate,
                              const storage::Table& table);

}  // namespace perf
}  // namespace robustqo

#endif  // ROBUSTQO_PERF_BATCH_EVAL_H_
