#include "perf/batch_eval.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>

namespace robustqo {
namespace perf {

namespace {

using expr::CompareOp;
using expr::ExprKind;
using storage::DataType;
using storage::Table;

// Writes mask[i] = row(i) for every row. Kernels hand in `row` as a lambda
// over a raw column array captured by value, and the mask is a raw pointer:
// with a std::vector on either side, a byte store may alias the vector's
// data pointer, so the compiler reloads it on every row. `row` returns a
// bool with no short-circuit, so each row is a load, a compare and a store,
// with no branch (and the loop vectorizes where the target has the compare,
// e.g. 64-bit integer compares from SSE4.2 on).
template <typename Row>
void FillMask(size_t n, uint8_t* __restrict mask, const Row& row) {
  for (size_t i = 0; i < n; ++i) mask[i] = row(i);
}

// Column-vs-literal comparison with the operator hoisted out of the loop.
// `at(i)` yields the row value, `lit` the constant; both already widened to
// a common comparable type.
template <typename At, typename LitT>
void CompareColLit(CompareOp op, size_t n, uint8_t* mask, const At& at,
                   const LitT& lit) {
  switch (op) {
    case CompareOp::kEq:
      FillMask(n, mask, [&](size_t i) { return at(i) == lit; });
      break;
    case CompareOp::kNe:
      FillMask(n, mask, [&](size_t i) { return at(i) != lit; });
      break;
    case CompareOp::kLt:
      FillMask(n, mask, [&](size_t i) { return at(i) < lit; });
      break;
    case CompareOp::kLe:
      FillMask(n, mask, [&](size_t i) { return at(i) <= lit; });
      break;
    case CompareOp::kGt:
      FillMask(n, mask, [&](size_t i) { return at(i) > lit; });
      break;
    case CompareOp::kGe:
      FillMask(n, mask, [&](size_t i) { return at(i) >= lit; });
      break;
  }
}

// `lo <= at(i) <= hi` with both compares evaluated: `&` rather than `&&`
// leaves no data-dependent branch, and the result is the same (a NaN on
// either side fails both ways).
template <typename At, typename LitT>
void BetweenColLit(size_t n, uint8_t* mask, const At& at, const LitT& lo,
                   const LitT& hi) {
  FillMask(n, mask, [&](size_t i) {
    const auto v = at(i);
    return (v >= lo) & (v <= hi);
  });
}

// `lit <op> col` rewritten as `col <flipped op> lit`.
CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      break;
  }
  return op;
}

// Scalar-interpretation fallback for subtrees without a columnar kernel
// (arithmetic, column-vs-column compares). Same bitmap, same semantics,
// row-at-a-time speed.
void FallbackMask(const expr::Expr& e, const Table& table, size_t n,
                  uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) mask[i] = e.EvaluateBool(table, i) ? 1 : 0;
}

// Kernel for `column <op> literal`. Returns false when no kernel applies
// (caller falls back). Mirrors the scalar path: int64/date vs int64/date
// compares exactly, any double widens both sides, strings compare
// lexicographically, string-vs-non-string is a type error the fallback
// reports identically to the scalar path.
bool TryCompareKernel(CompareOp op, const std::string& column,
                      const storage::Value& lit, const Table& table, size_t n,
                      uint8_t* mask) {
  auto idx = table.schema().ColumnIndex(column);
  if (!idx.ok()) return false;
  const storage::ColumnVector& col = table.column(idx.value());
  const bool col_int = storage::IsIntegerPhysical(col.type());
  const bool lit_int = storage::IsIntegerPhysical(lit.type());
  if (col.type() == DataType::kString || lit.type() == DataType::kString) {
    if (col.type() != DataType::kString || lit.type() != DataType::kString) {
      return false;  // type error; let the scalar path raise it
    }
    const std::string& s = lit.AsString();
    CompareColLit(
        op, n, mask,
        [&col](size_t i) -> const std::string& { return col.StringAt(i); }, s);
    return true;
  }
  if (col_int) {
    const int64_t* v = col.int64_data();
    if (lit_int) {
      CompareColLit(op, n, mask, [v](size_t i) { return v[i]; },
                    lit.AsInt64());
    } else {
      CompareColLit(op, n, mask,
                    [v](size_t i) { return static_cast<double>(v[i]); },
                    lit.NumericValue());
    }
  } else {
    const double* v = col.double_data();
    CompareColLit(op, n, mask, [v](size_t i) { return v[i]; },
                  lit.NumericValue());
  }
  return true;
}

// Kernel for `column BETWEEN lo AND hi`: one fused pass, one byte store
// per row.
bool TryBetweenKernel(const std::string& column, const storage::Value& lo,
                      const storage::Value& hi, const Table& table, size_t n,
                      uint8_t* mask) {
  auto idx = table.schema().ColumnIndex(column);
  if (!idx.ok()) return false;
  const storage::ColumnVector& col = table.column(idx.value());
  if (col.type() == DataType::kString || lo.type() == DataType::kString ||
      hi.type() == DataType::kString) {
    if (col.type() != DataType::kString || lo.type() != DataType::kString ||
        hi.type() != DataType::kString) {
      return false;
    }
    const std::string& a = lo.AsString();
    const std::string& b = hi.AsString();
    FillMask(n, mask, [&](size_t i) {
      const std::string& v = col.StringAt(i);
      return (v.compare(a) >= 0) & (v.compare(b) <= 0);
    });
    return true;
  }
  if (storage::IsIntegerPhysical(col.type())) {
    const int64_t* v = col.int64_data();
    if (storage::IsIntegerPhysical(lo.type()) &&
        storage::IsIntegerPhysical(hi.type())) {
      BetweenColLit(n, mask, [v](size_t i) { return v[i]; }, lo.AsInt64(),
                    hi.AsInt64());
    } else {
      BetweenColLit(n, mask,
                    [v](size_t i) { return static_cast<double>(v[i]); },
                    lo.NumericValue(), hi.NumericValue());
    }
  } else {
    const double* v = col.double_data();
    BetweenColLit(n, mask, [v](size_t i) { return v[i]; }, lo.NumericValue(),
                  hi.NumericValue());
  }
  return true;
}

// Evaluates `e` into `mask`. An AND or OR at `depth` folds through
// scratch mask `depth`, its children evaluate at depth + 1, and NOT passes
// its own depth on (it takes no scratch).
void EvalMask(const expr::Expr& e, const Table& table, size_t n,
              uint8_t* mask, size_t depth, MaskScratch* scratch);

// mask[i] &= other[i] (AND) or |= (OR): two distinct arrays, so the fold
// vectorizes without an overlap check.
void FoldMask(bool is_and, size_t n, uint8_t* __restrict mask,
              const uint8_t* __restrict other) {
  if (is_and) {
    for (size_t i = 0; i < n; ++i) mask[i] &= other[i];
  } else {
    for (size_t i = 0; i < n; ++i) mask[i] |= other[i];
  }
}

// The first child writes `mask`; every further child writes the scratch
// mask of this depth (never pre-filled: a child writes every byte), which
// is folded in.
void EvalChildrenCombine(const std::vector<expr::ExprPtr>& children,
                         const Table& table, size_t n, bool is_and,
                         uint8_t* mask, size_t depth, MaskScratch* scratch) {
  if (children.empty()) {
    // And({}) is TRUE, Or({}) is FALSE — matching the scalar evaluator.
    std::fill_n(mask, n, is_and ? 1 : 0);
    return;
  }
  EvalMask(*children[0], table, n, mask, depth + 1, scratch);
  if (children.size() == 1) return;
  uint8_t* other = scratch->At(depth, n);
  for (size_t c = 1; c < children.size(); ++c) {
    EvalMask(*children[c], table, n, other, depth + 1, scratch);
    FoldMask(is_and, n, mask, other);
  }
}

void EvalMask(const expr::Expr& e, const Table& table, size_t n,
              uint8_t* mask, size_t depth, MaskScratch* scratch) {
  switch (e.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const expr::ComparisonExpr&>(e);
      const expr::Expr& lhs = *cmp.lhs();
      const expr::Expr& rhs = *cmp.rhs();
      if (lhs.kind() == ExprKind::kColumnRef &&
          rhs.kind() == ExprKind::kLiteral) {
        if (TryCompareKernel(
                cmp.op(),
                static_cast<const expr::ColumnRefExpr&>(lhs).name(),
                static_cast<const expr::LiteralExpr&>(rhs).value(), table, n,
                mask)) {
          return;
        }
      } else if (lhs.kind() == ExprKind::kLiteral &&
                 rhs.kind() == ExprKind::kColumnRef) {
        if (TryCompareKernel(
                FlipOp(cmp.op()),
                static_cast<const expr::ColumnRefExpr&>(rhs).name(),
                static_cast<const expr::LiteralExpr&>(lhs).value(), table, n,
                mask)) {
          return;
        }
      }
      FallbackMask(e, table, n, mask);
      return;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const expr::BetweenExpr&>(e);
      if (bt.expr()->kind() == ExprKind::kColumnRef &&
          TryBetweenKernel(
              static_cast<const expr::ColumnRefExpr&>(*bt.expr()).name(),
              bt.lo(), bt.hi(), table, n, mask)) {
        return;
      }
      FallbackMask(e, table, n, mask);
      return;
    }
    case ExprKind::kAnd:
      EvalChildrenCombine(static_cast<const expr::AndExpr&>(e).children(),
                          table, n, /*is_and=*/true, mask, depth, scratch);
      return;
    case ExprKind::kOr:
      EvalChildrenCombine(static_cast<const expr::OrExpr&>(e).children(),
                          table, n, /*is_and=*/false, mask, depth, scratch);
      return;
    case ExprKind::kNot: {
      EvalMask(*static_cast<const expr::NotExpr&>(e).child(), table, n, mask,
               depth, scratch);
      for (size_t i = 0; i < n; ++i) mask[i] ^= 1;
      return;
    }
    case ExprKind::kStringContains: {
      const auto& sc = static_cast<const expr::StringContainsExpr&>(e);
      if (sc.expr()->kind() == ExprKind::kColumnRef) {
        const std::string& name =
            static_cast<const expr::ColumnRefExpr&>(*sc.expr()).name();
        auto idx = table.schema().ColumnIndex(name);
        if (idx.ok() &&
            table.column(idx.value()).type() == DataType::kString) {
          const storage::ColumnVector& col = table.column(idx.value());
          const std::string& needle = sc.needle();
          FillMask(n, mask, [&](size_t i) {
            return col.StringAt(i).find(needle) != std::string::npos;
          });
          return;
        }
      }
      FallbackMask(e, table, n, mask);
      return;
    }
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kArithmetic:
      FallbackMask(e, table, n, mask);
      return;
  }
  FallbackMask(e, table, n, mask);
}

}  // namespace

uint8_t* MaskScratch::At(size_t depth, size_t n) {
  if (depth >= masks_.size()) masks_.resize(depth + 1);
  Mask& mask = masks_[depth];
  if (mask.size < n) {
    mask.bytes = std::make_unique_for_overwrite<uint8_t[]>(n);
    mask.size = n;
    obtained_ += n;
  }
  return mask.bytes.get();
}

uint64_t BatchEvaluateMask(const expr::Expr& predicate,
                           const storage::Table& table, uint8_t* mask,
                           MaskScratch* scratch) {
  const size_t n = static_cast<size_t>(table.num_rows());
  EvalMask(predicate, table, n, mask, 0, scratch);
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += mask[i];
  return count;
}

uint64_t BatchEvaluateMask(const expr::Expr& predicate,
                           const storage::Table& table,
                           std::vector<uint8_t>* mask) {
  mask->resize(static_cast<size_t>(table.num_rows()));
  MaskScratch scratch;
  return BatchEvaluateMask(predicate, table, mask->data(), &scratch);
}

uint64_t BatchCountSatisfying(const expr::Expr& predicate,
                              const storage::Table& table) {
  const std::unique_ptr<uint8_t[]> mask =
      std::make_unique_for_overwrite<uint8_t[]>(
          static_cast<size_t>(table.num_rows()));
  MaskScratch scratch;
  return BatchEvaluateMask(predicate, table, mask.get(), &scratch);
}

}  // namespace perf
}  // namespace robustqo
