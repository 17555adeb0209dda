#include "exec/join_ops.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace exec {

using storage::Rid;
using storage::Table;

namespace {

// Merge order of `rows` on the integer key in column `idx`: empty when the
// rows already arrive sorted, else a stable sort permutation, charged like
// a SortOp. UPDATE appends new versions out of clustering order, and a
// cached merge-join plan can outlive the write (the plan cache is keyed on
// the statistics epoch, not the data epoch), so the operator checks its
// inputs instead of trusting the plan.
Result<std::vector<Rid>> MergeOrder(const Table& rows, size_t idx,
                                    ExecContext* ctx,
                                    fault::MemoryReservation* workspace) {
  const storage::ColumnVector& keys = rows.column(idx);
  RQO_CHECK_MSG(storage::IsIntegerPhysical(keys.type()),
                "join keys must be integer-physical");
  const Rid n = rows.num_rows();
  Rid sorted_prefix = 1;
  while (sorted_prefix < n &&
         keys.Int64At(sorted_prefix - 1) <= keys.Int64At(sorted_prefix)) {
    ++sorted_prefix;
  }
  if (sorted_prefix >= n) return std::vector<Rid>{};
  ctx->meter.ChargeSortWork(ctx->cost_model, n);
  RQO_RETURN_NOT_OK(workspace->Grow(n * sizeof(Rid)));
  std::vector<Rid> order(n);
  std::iota(order.begin(), order.end(), Rid{0});
  std::stable_sort(order.begin(), order.end(), [&keys](Rid a, Rid b) {
    return keys.Int64At(a) < keys.Int64At(b);
  });
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  return order;
}

// Output plumbing for binary joins: maps each requested output column to
// (which input, column index there).
struct JoinOutput {
  storage::Schema schema;
  std::vector<std::pair<int, size_t>> sources;  // {0=left/build, 1=right}

  static Result<JoinOutput> Plan(const storage::Schema& left,
                                 const storage::Schema& right,
                                 const std::vector<std::string>& requested) {
    JoinOutput out;
    std::vector<storage::ColumnDef> defs;
    auto add = [&](const storage::Schema& schema, int side, size_t i) {
      defs.push_back(schema.column(i));
      out.sources.emplace_back(side, i);
    };
    if (requested.empty()) {
      for (size_t i = 0; i < left.num_columns(); ++i) add(left, 0, i);
      for (size_t i = 0; i < right.num_columns(); ++i) add(right, 1, i);
    } else {
      for (const std::string& name : requested) {
        auto li = left.ColumnIndex(name);
        if (li.ok()) {
          add(left, 0, li.value());
          continue;
        }
        auto ri = right.ColumnIndex(name);
        if (!ri.ok()) return ri.status();
        add(right, 1, ri.value());
      }
    }
    out.schema = storage::Schema(std::move(defs));
    return out;
  }

  // Gathers the joined rows (lrids[i], rrids[i]) into `dest`, one output
  // column at a time.
  void Gather(const Table& left, const std::vector<Rid>& lrids,
              const Table& right, const std::vector<Rid>& rrids,
              Table* dest) const {
    for (size_t j = 0; j < sources.size(); ++j) {
      const auto& [side, idx] = sources[j];
      dest->mutable_column(j)->AppendGather(
          side == 0 ? left.column(idx) : right.column(idx),
          side == 0 ? lrids : rrids);
    }
    dest->FinalizeBulkLoad();
  }
};

// Matched (left rid, right rid) pairs in emit order. The joins charge the
// governor one TickRows per run of pairs (a probe row's matches, an
// equal-key run's cross product, an outer row's index matches).
struct JoinPairs {
  std::vector<Rid> left;
  std::vector<Rid> right;

  void Add(Rid l, Rid r) {
    left.push_back(l);
    right.push_back(r);
  }
  size_t size() const { return left.size(); }
};

// Integer key column `idx` of `table` (join keys are integer-physical).
const storage::ColumnVector& KeyColumn(const Table& table, size_t idx) {
  const storage::ColumnVector& col = table.column(idx);
  RQO_CHECK_MSG(storage::IsIntegerPhysical(col.type()),
                "join keys must be integer-physical");
  return col;
}

// Build side of the hash join: a chained hash table over the build RIDs
// (bucket heads plus one next link per RID). RIDs are inserted in
// ascending order and prepended to their chain, so Probe visits each
// key's matches in descending build-RID order.
class JoinHashTable {
 public:
  explicit JoinHashTable(const storage::ColumnVector& keys)
      : keys_(keys), next_(keys.size(), kNone) {
    size_t buckets = 16;
    while (buckets < keys.size() * 2) buckets <<= 1;
    heads_.assign(buckets, kNone);
    shift_ = 64 - static_cast<int>(std::countr_zero(buckets));
    for (Rid rid = 0; rid < keys.size(); ++rid) {
      Rid& head = heads_[Bucket(keys_.Int64At(rid))];
      next_[rid] = head;
      head = rid;
    }
  }

  // Calls `fn(build_rid)` for every build row whose key equals `key`.
  template <typename Fn>
  void Probe(int64_t key, const Fn& fn) const {
    for (Rid rid = heads_[Bucket(key)]; rid != kNone; rid = next_[rid]) {
      if (keys_.Int64At(rid) == key) fn(rid);
    }
  }

 private:
  static constexpr Rid kNone = ~Rid{0};

  size_t Bucket(int64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  const storage::ColumnVector& keys_;
  std::vector<Rid> next_;
  std::vector<Rid> heads_;
  int shift_ = 0;
};

}  // namespace

// ----- HashJoinOp -----

HashJoinOp::HashJoinOp(OperatorPtr build, OperatorPtr probe,
                       std::string build_key, std::string probe_key,
                       std::vector<std::string> output_columns)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_key_(std::move(build_key)),
      probe_key_(std::move(probe_key)),
      output_columns_(std::move(output_columns)) {}

Result<Table> HashJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table build_rows, build_->Run(ctx));
  RQO_ASSIGN_OR_RETURN(const Table probe_rows, probe_->Run(ctx));
  RQO_ASSIGN_OR_RETURN(const size_t build_key_idx,
                       build_rows.schema().ColumnIndex(build_key_));
  RQO_ASSIGN_OR_RETURN(const size_t probe_key_idx,
                       probe_rows.schema().ColumnIndex(probe_key_));

  ctx->meter.ChargeHashJoin(ctx->cost_model, build_rows.num_rows(),
                            probe_rows.num_rows());

  // Hash-table workspace: key + rid + bucket overhead per build entry.
  fault::MemoryReservation workspace(ctx->governor);
  RQO_RETURN_NOT_OK(workspace.Grow(build_rows.num_rows() * 24));
  const JoinHashTable hash_table(KeyColumn(build_rows, build_key_idx));
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(build_rows.schema(), probe_rows.schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  const storage::ColumnVector& probe_keys =
      KeyColumn(probe_rows, probe_key_idx);
  JoinPairs pairs;
  for (Rid prid = 0; prid < probe_rows.num_rows(); ++prid) {
    const size_t before = pairs.size();
    hash_table.Probe(probe_keys.Int64At(prid),
                     [&](Rid b) { pairs.Add(b, prid); });
    RQO_RETURN_NOT_OK(ctx->TickRows(pairs.size() - before, row_bytes));
  }
  Table out("hashjoin", plan.schema);
  plan.Gather(build_rows, pairs.left, probe_rows, pairs.right, &out);
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string HashJoinOp::Describe() const {
  return StrPrintf("HashJoin(%s = %s)", build_key_.c_str(),
                   probe_key_.c_str());
}

std::vector<const PhysicalOperator*> HashJoinOp::children() const {
  return {build_.get(), probe_.get()};
}

// ----- MergeJoinOp -----

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         std::string left_key, std::string right_key,
                         std::vector<std::string> output_columns)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      output_columns_(std::move(output_columns)) {}

Result<Table> MergeJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table left_rows, left_->Run(ctx));
  RQO_ASSIGN_OR_RETURN(const Table right_rows, right_->Run(ctx));
  RQO_ASSIGN_OR_RETURN(const size_t lk,
                       left_rows.schema().ColumnIndex(left_key_));
  RQO_ASSIGN_OR_RETURN(const size_t rk,
                       right_rows.schema().ColumnIndex(right_key_));

  ctx->meter.ChargeCpuTuples(
      ctx->cost_model, left_rows.num_rows() + right_rows.num_rows());
  fault::MemoryReservation workspace(ctx->governor);
  RQO_ASSIGN_OR_RETURN(const std::vector<Rid> left_order,
                       MergeOrder(left_rows, lk, ctx, &workspace));
  RQO_ASSIGN_OR_RETURN(const std::vector<Rid> right_order,
                       MergeOrder(right_rows, rk, ctx, &workspace));
  auto left_at = [&](Rid i) { return left_order.empty() ? i : left_order[i]; };
  auto right_at = [&](Rid i) {
    return right_order.empty() ? i : right_order[i];
  };

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(left_rows.schema(), right_rows.schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  const storage::ColumnVector& lkeys = KeyColumn(left_rows, lk);
  const storage::ColumnVector& rkeys = KeyColumn(right_rows, rk);
  JoinPairs pairs;
  Rid li = 0;
  Rid ri = 0;
  const Rid ln = left_rows.num_rows();
  const Rid rn = right_rows.num_rows();
  while (li < ln && ri < rn) {
    const int64_t lkey = lkeys.Int64At(left_at(li));
    const int64_t rkey = rkeys.Int64At(right_at(ri));
    if (lkey < rkey) {
      ++li;
    } else if (lkey > rkey) {
      ++ri;
    } else {
      // Emit the cross product of the two equal-key runs.
      Rid lend = li;
      while (lend < ln && lkeys.Int64At(left_at(lend)) == lkey) ++lend;
      Rid rend = ri;
      while (rend < rn && rkeys.Int64At(right_at(rend)) == rkey) ++rend;
      RQO_RETURN_NOT_OK(
          ctx->TickRows(static_cast<uint64_t>(lend - li) * (rend - ri),
                        row_bytes));
      for (Rid a = li; a < lend; ++a) {
        for (Rid b = ri; b < rend; ++b) pairs.Add(left_at(a), right_at(b));
      }
      li = lend;
      ri = rend;
    }
  }
  Table out("mergejoin", plan.schema);
  plan.Gather(left_rows, pairs.left, right_rows, pairs.right, &out);
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string MergeJoinOp::Describe() const {
  return StrPrintf("MergeJoin(%s = %s)", left_key_.c_str(),
                   right_key_.c_str());
}

std::vector<const PhysicalOperator*> MergeJoinOp::children() const {
  return {left_.get(), right_.get()};
}

// ----- IndexNestedLoopJoinOp -----

IndexNestedLoopJoinOp::IndexNestedLoopJoinOp(
    OperatorPtr outer, std::string outer_key, std::string inner_table,
    std::string inner_index_column, expr::ExprPtr inner_residual,
    std::vector<std::string> output_columns)
    : outer_(std::move(outer)),
      outer_key_(std::move(outer_key)),
      inner_table_(std::move(inner_table)),
      inner_index_column_(std::move(inner_index_column)),
      inner_residual_(std::move(inner_residual)),
      output_columns_(std::move(output_columns)) {}

Result<Table> IndexNestedLoopJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const Table outer_rows, outer_->Run(ctx));
  RQO_ASSIGN_OR_RETURN(const Table* inner, LookupTable(*ctx, inner_table_));
  RQO_ASSIGN_OR_RETURN(
      const storage::SortedIndex* index,
      LookupIndex(*ctx, inner_table_, inner_index_column_));
  RQO_ASSIGN_OR_RETURN(const size_t ok,
                       outer_rows.schema().ColumnIndex(outer_key_));

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(outer_rows.schema(), inner->schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  const storage::ColumnVector& outer_keys = KeyColumn(outer_rows, ok);
  JoinPairs pairs;
  for (Rid orid = 0; orid < outer_rows.num_rows(); ++orid) {
    const int64_t key = outer_keys.Int64At(orid);
    uint64_t entries = 0;
    std::vector<Rid> matches =
        index->EqualLookup(static_cast<double>(key), &entries);
    ctx->meter.ChargeIndexProbe(ctx->cost_model, entries);
    ctx->meter.ChargeRandomIo(ctx->cost_model, matches.size());
    const size_t before = pairs.size();
    for (Rid irid : matches) {
      // The index holds every physical version; only the ones visible at
      // the snapshot join, as in the scans.
      if (!inner->VisibleAt(irid, ctx->snapshot_epoch)) continue;
      if (inner_residual_ == nullptr ||
          inner_residual_->EvaluateBool(*inner, irid)) {
        pairs.Add(orid, irid);
      }
    }
    RQO_RETURN_NOT_OK(ctx->TickRows(pairs.size() - before, row_bytes));
  }
  Table out("inlj", plan.schema);
  plan.Gather(outer_rows, pairs.left, *inner, pairs.right, &out);
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string IndexNestedLoopJoinOp::Describe() const {
  return StrPrintf("IndexNestedLoopJoin(%s -> %s.%s)", outer_key_.c_str(),
                   inner_table_.c_str(), inner_index_column_.c_str());
}

std::vector<const PhysicalOperator*> IndexNestedLoopJoinOp::children() const {
  return {outer_.get()};
}

}  // namespace exec
}  // namespace robustqo
