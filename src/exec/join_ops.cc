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

// Probe rows (hash join) or matched pairs (merge join) per governor
// charge. Neither join moves the meter inside its loop, so one TickRows
// per batch has the outcome of one per probe row or equal-key run.
constexpr uint64_t kTickBatch = 1024;

// The integer join key `key` of `rows`; kInvalidArgument when the column
// is not integer-physical.
Result<ColumnView> JoinKey(const RowSet& rows, const std::string& key) {
  RQO_ASSIGN_OR_RETURN(const size_t idx, rows.schema().ColumnIndex(key));
  const ColumnView view = rows.column(idx);
  if (!storage::IsIntegerPhysical(view.type())) {
    return Status::InvalidArgument("join key " + key +
                                   " must be integer-physical");
  }
  return view;
}

// Merge order of the `n` `keys`: null when they already arrive sorted, else
// a stable sort permutation in a workspace buffer, charged like a SortOp.
// UPDATE appends new versions out of clustering order, and a cached
// merge-join plan can outlive the write (the plan cache is keyed on the
// statistics epoch, not the data epoch), so the operator checks its inputs
// instead of trusting the plan.
Result<const Rid*> MergeOrder(const int64_t* keys, Rid n, ExecContext* ctx,
                              fault::MemoryReservation* reservation) {
  if (std::is_sorted(keys, keys + n)) return nullptr;
  ctx->meter.ChargeSortWork(ctx->cost_model, n);
  RQO_RETURN_NOT_OK(reservation->Grow(n * sizeof(Rid)));
  RidBuffer& order = ctx->workspace().Take<Rid>(n);
  std::iota(order.begin(), order.end(), Rid{0});
  std::stable_sort(order.begin(), order.end(),
                   [keys](Rid a, Rid b) { return keys[a] < keys[b]; });
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  return order.data();
}

// Matched (left row, right row) pairs in emit order, in two workspace
// buffers: either empty with room for `expected` pairs (Add grows them past
// it), or two buffers the caller filled by index.
struct JoinPairs {
  RidBuffer& left;
  RidBuffer& right;

  JoinPairs(Workspace* workspace, size_t expected)
      : left(workspace->Take<Rid>()), right(workspace->Take<Rid>()) {
    left.reserve(expected);
    right.reserve(expected);
  }
  JoinPairs(RidBuffer& filled_left, RidBuffer& filled_right)
      : left(filled_left), right(filled_right) {}

  void Add(Rid l, Rid r) {
    left.push_back(l);
    right.push_back(r);
  }
  // Keeps the first `n` pairs of filled buffers.
  void KeepFirst(size_t n) {
    left.resize(n);
    right.resize(n);
  }
  size_t size() const { return left.size(); }
};

// Output plumbing for binary joins: maps each requested output column to
// (which input, column index there), as RowSet::Combine reads it.
struct JoinOutput {
  storage::Schema schema;
  std::vector<std::pair<size_t, size_t>> sources;  // {0=left/build, 1=right}

  static Result<JoinOutput> Plan(const storage::Schema& left,
                                 const storage::Schema& right,
                                 const std::vector<std::string>& requested) {
    JoinOutput out;
    std::vector<storage::ColumnDef> defs;
    auto add = [&](const storage::Schema& schema, size_t side, size_t i) {
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

  // The joined rows (left row pairs.left[i] beside right row
  // pairs.right[i]), composed with each input's slices.
  RowSet Join(std::string name, const RowSet& left, const RowSet& right,
              const JoinPairs& pairs, Workspace* workspace) const {
    return RowSet::Combine(std::move(name), schema, pairs.size(),
                           {{&left, &pairs.left}, {&right, &pairs.right}},
                           sources, workspace);
  }
};

// Build side of the hash join: a chained hash table over the `n` build
// keys (bucket heads plus one next link per row, in workspace buffers).
// Rows are inserted in ascending order and prepended to their chain, so
// Probe visits each key's matches in descending build-row order.
//
// Each insert walks its bucket's chain, so the build also learns whether
// the keys are unique (a primary key, in every foreign-key join). A unique
// build keeps two more arrays, one entry per bucket, for ProbeUnique: the
// head row's key (an empty bucket holds a key of another bucket, so no
// probe key matches it) and a flag for a chain longer than one.
class JoinHashTable {
 public:
  JoinHashTable(const int64_t* keys, Rid n, Workspace* workspace)
      : keys_(keys),
        next_(workspace->Take<Rid>(n)),
        heads_(workspace->Take<Rid>()) {
    size_t buckets = 16;
    while (buckets < n * 2) buckets <<= 1;
    heads_.assign(buckets, kNone);
    shift_ = 64 - static_cast<int>(std::countr_zero(buckets));
    for (Rid rid = 0; rid < n; ++rid) {
      Rid& head = heads_[Bucket(keys_[rid])];
      // Once a key repeats, the build has duplicates and stops looking.
      for (Rid r = unique_ ? head : kNone; r != kNone; r = next_[r]) {
        if (keys_[r] == keys_[rid]) unique_ = false;
      }
      next_[rid] = head;
      head = rid;
    }
    if (!unique_) return;
    head_keys_ = workspace->Take<int64_t>(buckets).data();
    chained_ = workspace->Take<uint8_t>(buckets).data();
    for (size_t b = 0; b < buckets; ++b) {
      const Rid head = heads_[b];
      head_keys_[b] = head == kNone ? EmptyKey(b) : keys_[head];
      chained_[b] = head != kNone && next_[head] != kNone;
    }
  }

  // Whether no two build rows share a key.
  bool unique() const { return unique_; }

  // Calls `fn(build_row)` for every build row whose key equals `key`.
  template <typename Fn>
  void Probe(int64_t key, const Fn& fn) const {
    for (Rid rid = heads_[Bucket(key)]; rid != kNone; rid = next_[rid]) {
      if (keys_[rid] == key) fn(rid);
    }
  }

  // Unique builds only: stores the (build row, probe row) pair of each
  // matching probe row in [begin, end) at build_out/probe_out[fill], in
  // probe-row order, and returns the new fill. Every row stores a
  // candidate pair and advances the fill by one compare, with no branch on
  // hit or miss; only a chained bucket walks its chain, the same way. A
  // row's stores land at most one slot past its own index.
  Rid ProbeUnique(const ColumnView& probe_keys, Rid begin, Rid end, Rid fill,
                  Rid* build_out, Rid* probe_out) const {
    const int64_t* column = probe_keys.column->int64_data();
    const Rid* selection = probe_keys.rids;
    const Rid* heads = heads_.data();
    for (Rid prid = begin; prid < end; ++prid) {
      const int64_t key =
          column[selection == nullptr ? prid : selection[prid]];
      const size_t b = Bucket(key);
      if (chained_[b] == 0) {
        build_out[fill] = heads[b];
        probe_out[fill] = prid;
        fill += head_keys_[b] == key;
        continue;
      }
      for (Rid rid = heads[b]; rid != kNone; rid = next_[rid]) {
        build_out[fill] = rid;
        probe_out[fill] = prid;
        fill += keys_[rid] == key;
      }
    }
    return fill;
  }

 private:
  static constexpr Rid kNone = ~Rid{0};

  size_t Bucket(int64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // The smallest non-negative key of a bucket other than `b`: 0 for every
  // bucket but 0 itself, which takes 1.
  int64_t EmptyKey(size_t b) const {
    int64_t key = 0;
    while (Bucket(key) == b) ++key;
    return key;
  }

  const int64_t* keys_;
  RidBuffer& next_;
  RidBuffer& heads_;
  int shift_ = 0;
  bool unique_ = true;
  int64_t* head_keys_ = nullptr;  // unique builds: each bucket's head key
  uint8_t* chained_ = nullptr;    // unique builds: chain longer than one
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

Result<RowSet> HashJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet build_rows, RunChild(*build_, ctx));
  RQO_ASSIGN_OR_RETURN(const RowSet probe_rows, RunChild(*probe_, ctx));
  RQO_ASSIGN_OR_RETURN(const ColumnView build_keys,
                       JoinKey(build_rows, build_key_));
  RQO_ASSIGN_OR_RETURN(const ColumnView probe_keys,
                       JoinKey(probe_rows, probe_key_));

  ctx->meter.ChargeHashJoin(ctx->cost_model, build_rows.num_rows(),
                            probe_rows.num_rows());

  // Hash-table workspace: key + rid + bucket overhead per build entry.
  fault::MemoryReservation reservation(ctx->governor);
  RQO_RETURN_NOT_OK(reservation.Grow(build_rows.num_rows() * 24));
  Workspace& workspace = ctx->workspace();
  const JoinHashTable hash_table(
      build_keys.Int64Values(build_rows.num_rows(), &workspace),
      build_rows.num_rows(), &workspace);
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(build_rows.schema(), probe_rows.schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  const Rid probe_n = probe_rows.num_rows();
  // A unique build matches each probe row at most once, and ProbeUnique's
  // stores land at most one slot past the probe row's own index: its pair
  // buffers are sized once, at probe rows + 1.
  const bool unique = hash_table.unique();
  JoinPairs pairs = unique ? JoinPairs(workspace.Take<Rid>(probe_n + 1),
                                       workspace.Take<Rid>(probe_n + 1))
                           : JoinPairs(&workspace, probe_n);
  Rid fill = 0;
  for (Rid start = 0; start < probe_n; start += kTickBatch) {
    const Rid before = fill;
    const Rid end = std::min(probe_n, start + kTickBatch);
    if (unique) {
      fill = hash_table.ProbeUnique(probe_keys, start, end, fill,
                                    pairs.left.data(), pairs.right.data());
    } else {
      for (Rid prid = start; prid < end; ++prid) {
        hash_table.Probe(probe_keys.Int64At(prid),
                         [&](Rid b) { pairs.Add(b, prid); });
      }
      fill = pairs.size();
    }
    RQO_RETURN_NOT_OK(ctx->TickRows(fill - before, row_bytes));
  }
  if (unique) pairs.KeepFirst(fill);
  RowSet out =
      plan.Join("hashjoin", build_rows, probe_rows, pairs, &workspace);
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

Result<RowSet> MergeJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet left_rows, RunChild(*left_, ctx));
  RQO_ASSIGN_OR_RETURN(const RowSet right_rows, RunChild(*right_, ctx));
  RQO_ASSIGN_OR_RETURN(const ColumnView left_keys,
                       JoinKey(left_rows, left_key_));
  RQO_ASSIGN_OR_RETURN(const ColumnView right_keys,
                       JoinKey(right_rows, right_key_));
  // An unselected side's keys are read in place.
  Workspace& workspace = ctx->workspace();
  const Rid ln = left_rows.num_rows();
  const Rid rn = right_rows.num_rows();
  const int64_t* lkeys = left_keys.Int64Values(ln, &workspace);
  const int64_t* rkeys = right_keys.Int64Values(rn, &workspace);

  ctx->meter.ChargeCpuTuples(ctx->cost_model, ln + rn);
  fault::MemoryReservation reservation(ctx->governor);
  RQO_ASSIGN_OR_RETURN(const Rid* left_order,
                       MergeOrder(lkeys, ln, ctx, &reservation));
  RQO_ASSIGN_OR_RETURN(const Rid* right_order,
                       MergeOrder(rkeys, rn, ctx, &reservation));
  auto left_at = [&](Rid i) {
    return left_order == nullptr ? i : left_order[i];
  };
  auto right_at = [&](Rid i) {
    return right_order == nullptr ? i : right_order[i];
  };

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(left_rows.schema(), right_rows.schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  // A foreign key joining its primary key matches each row of its own side
  // at most once.
  JoinPairs pairs(&workspace, std::max(ln, rn));
  uint64_t unticked = 0;  // pairs not yet charged to the governor
  Rid li = 0;
  Rid ri = 0;
  while (li < ln && ri < rn) {
    const int64_t lkey = lkeys[left_at(li)];
    const int64_t rkey = rkeys[right_at(ri)];
    if (lkey < rkey) {
      ++li;
    } else if (lkey > rkey) {
      ++ri;
    } else {
      // Emit the cross product of the two equal-key runs, charging the
      // pending pairs before a batch grows past kTickBatch.
      Rid lend = li;
      while (lend < ln && lkeys[left_at(lend)] == lkey) ++lend;
      Rid rend = ri;
      while (rend < rn && rkeys[right_at(rend)] == rkey) ++rend;
      unticked += static_cast<uint64_t>(lend - li) * (rend - ri);
      if (unticked >= kTickBatch) {
        RQO_RETURN_NOT_OK(ctx->TickRows(unticked, row_bytes));
        unticked = 0;
      }
      for (Rid a = li; a < lend; ++a) {
        for (Rid b = ri; b < rend; ++b) pairs.Add(left_at(a), right_at(b));
      }
      li = lend;
      ri = rend;
    }
  }
  RQO_RETURN_NOT_OK(ctx->TickRows(unticked, row_bytes));
  RowSet out =
      plan.Join("mergejoin", left_rows, right_rows, pairs, &workspace);
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

Result<RowSet> IndexNestedLoopJoinOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet outer_rows, RunChild(*outer_, ctx));
  RQO_ASSIGN_OR_RETURN(const Table* inner, LookupTable(*ctx, inner_table_));
  RQO_ASSIGN_OR_RETURN(
      const storage::SortedIndex* index,
      LookupIndex(*ctx, inner_table_, inner_index_column_));
  RQO_ASSIGN_OR_RETURN(const ColumnView outer_keys,
                       JoinKey(outer_rows, outer_key_));

  RQO_ASSIGN_OR_RETURN(
      const JoinOutput plan,
      JoinOutput::Plan(outer_rows.schema(), inner->schema(),
                       output_columns_));
  const uint64_t row_bytes = ApproximateRowBytes(plan.schema);
  Workspace& workspace = ctx->workspace();
  JoinPairs pairs(&workspace, outer_rows.num_rows());
  for (Rid orid = 0; orid < outer_rows.num_rows(); ++orid) {
    uint64_t entries = 0;
    const std::span<const Rid> matches = index->EqualLookup(
        static_cast<double>(outer_keys.Int64At(orid)), &entries);
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
    // The meter moved above, so this charge stays per outer row.
    RQO_RETURN_NOT_OK(ctx->TickRows(pairs.size() - before, row_bytes));
  }
  const RowSet inner_rows = RowSet::Identity(
      inner_table_, inner->schema(), inner, AllColumns(inner->schema()),
      inner->num_rows());
  RowSet out = plan.Join("inlj", outer_rows, inner_rows, pairs, &workspace);
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
