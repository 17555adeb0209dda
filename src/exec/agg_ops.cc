#include "exec/agg_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace exec {

using storage::DataType;
using storage::Rid;
using storage::Table;
using storage::Value;

namespace {

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kAvg:
      return "AVG";
  }
  return "?";
}

// Running state for one aggregate. Update maintains only the fields
// Finalize reads for `kind`.
struct AggState {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t count = 0;

  void Update(AggKind kind, double v) {
    switch (kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        sum += v;
        break;
      case AggKind::kMin:
        min = std::fmin(min, v);
        break;
      case AggKind::kMax:
        max = std::fmax(max, v);
        break;
    }
    ++count;
  }

  Value Finalize(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount:
        return Value::Int64(static_cast<int64_t>(count));
      case AggKind::kSum:
        return Value::Double(sum);
      case AggKind::kMin:
        return Value::Double(count == 0 ? 0.0 : min);
      case AggKind::kMax:
        return Value::Double(count == 0 ? 0.0 : max);
      case AggKind::kAvg:
        return Value::Double(count == 0 ? 0.0
                                        : sum / static_cast<double>(count));
    }
    return Value();
  }
};

Result<storage::Schema> AggOutputSchema(
    const std::vector<std::string>& group_names, const storage::Schema& input,
    const std::vector<AggSpec>& aggs) {
  std::vector<storage::ColumnDef> defs;
  for (const std::string& g : group_names) {
    auto idx = input.ColumnIndex(g);
    if (!idx.ok()) return idx.status();
    defs.push_back(input.column(idx.value()));
  }
  for (const AggSpec& agg : aggs) {
    const DataType type =
        agg.kind == AggKind::kCount ? DataType::kInt64 : DataType::kDouble;
    defs.push_back({agg.output_name, type});
  }
  return storage::Schema(std::move(defs));
}

// Column index for each aggregate's input (SIZE_MAX for COUNT, which reads
// no values). Aggregates other than COUNT need a numeric column; a string
// one fails here, once, rather than inside the accumulate loop.
Result<std::vector<size_t>> AggInputColumns(const storage::Schema& input,
                                            const std::vector<AggSpec>& aggs) {
  std::vector<size_t> cols;
  cols.reserve(aggs.size());
  for (const AggSpec& agg : aggs) {
    if (agg.kind == AggKind::kCount && agg.column.empty()) {
      cols.push_back(SIZE_MAX);
      continue;
    }
    auto idx = input.ColumnIndex(agg.column);
    if (!idx.ok()) return idx.status();
    if (agg.kind == AggKind::kCount) {
      cols.push_back(SIZE_MAX);
      continue;
    }
    if (input.column(idx.value()).type == DataType::kString) {
      return Status::InvalidArgument(
          StrPrintf("%s(%s) needs a numeric column", AggKindName(agg.kind),
                    agg.column.c_str()));
    }
    cols.push_back(idx.value());
  }
  return cols;
}

// Folds every row of `input` into its group's aggregate states, one
// aggregate column at a time: row i belongs to group `group_of(i)`, whose
// states are states[group * aggs, (group + 1) * aggs). Each group sees its
// rows in row order, so sums match a row-at-a-time loop bit for bit.
template <typename GroupOf>
void Accumulate(const RowSet& input, const std::vector<AggSpec>& aggs,
                const std::vector<size_t>& agg_cols, const GroupOf& group_of,
                AggState* states) {
  const size_t num_aggs = agg_cols.size();
  const uint64_t n = input.num_rows();
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggKind kind = aggs[a].kind;
    AggState* column_states = states + a;
    if (agg_cols[a] == SIZE_MAX) {  // COUNT: only the count matters
      for (uint64_t i = 0; i < n; ++i) {
        ++column_states[group_of(i) * num_aggs].count;
      }
      continue;
    }
    const auto fold = [&](const auto& value_at) {
      for (uint64_t i = 0; i < n; ++i) {
        column_states[group_of(i) * num_aggs].Update(kind, value_at(i));
      }
    };
    // AggInputColumns admitted only numeric columns: read the typed array.
    const ColumnView view = input.column(agg_cols[a]);
    const storage::ColumnVector& col = *view.column;
    const Rid* rids = view.rids;
    if (view.type() == DataType::kDouble) {
      if (rids == nullptr) {
        fold([&col](uint64_t i) { return col.DoubleAt(i); });
      } else {
        fold([&col, rids](uint64_t i) { return col.DoubleAt(rids[i]); });
      }
    } else if (rids == nullptr) {
      fold([&col](uint64_t i) {
        return static_cast<double>(col.Int64At(i));
      });
    } else {
      fold([&col, rids](uint64_t i) {
        return static_cast<double>(col.Int64At(rids[i]));
      });
    }
  }
}

// Appends the finalized aggregates as output columns [first, first+aggs).
void AppendAggColumns(const std::vector<AggSpec>& aggs,
                      const AggState* states, size_t first, Table* out) {
  for (size_t a = 0; a < aggs.size(); ++a) {
    out->mutable_column(first + a)->Append(states[a].Finalize(aggs[a].kind));
  }
}

// Open-addressing hash table from a k-column integer key to its group
// number; groups are numbered in first-seen order.
class GroupTable {
 public:
  explicit GroupTable(size_t k) : k_(k), slots_(16, kEmpty) {}

  size_t size() const { return size_; }

  // The k key values of `group`.
  const int64_t* key(size_t group) const { return keys_.data() + group * k_; }

  // The group of `key` (k values) and whether it was inserted just now.
  std::pair<size_t, bool> FindOrInsert(const int64_t* key) {
    const uint64_t hash = Hash(key);
    size_t slot = hash & (slots_.size() - 1);
    while (slots_[slot] != kEmpty) {
      const size_t group = slots_[slot];
      if (std::equal(key, key + k_, this->key(group))) {
        return {group, false};
      }
      slot = (slot + 1) & (slots_.size() - 1);
    }
    const size_t group = size_++;
    slots_[slot] = group;
    keys_.insert(keys_.end(), key, key + k_);
    if (size_ * 2 > slots_.size()) Grow();
    return {group, true};
  }

 private:
  static constexpr size_t kEmpty = SIZE_MAX;

  uint64_t Hash(const int64_t* key) const {
    uint64_t h = 0;
    for (size_t i = 0; i < k_; ++i) {
      h = (h ^ static_cast<uint64_t>(key[i])) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    }
    return h;
  }

  void Grow() {
    std::vector<size_t> slots(slots_.size() * 2, kEmpty);
    for (size_t group = 0; group < size_; ++group) {
      size_t slot = Hash(key(group)) & (slots.size() - 1);
      while (slots[slot] != kEmpty) slot = (slot + 1) & (slots.size() - 1);
      slots[slot] = group;
    }
    slots_ = std::move(slots);
  }

  size_t k_;
  std::vector<int64_t> keys_;  // group g's key at [g * k_, (g + 1) * k_)
  std::vector<size_t> slots_;
  size_t size_ = 0;
};

std::string DescribeAggs(const std::vector<AggSpec>& aggs) {
  std::vector<std::string> parts;
  parts.reserve(aggs.size());
  for (const AggSpec& a : aggs) {
    parts.push_back(StrPrintf("%s(%s)", AggKindName(a.kind),
                              a.column.empty() ? "*" : a.column.c_str()));
  }
  return StrJoin(parts, ", ");
}

}  // namespace

// ----- FilterOp -----

FilterOp::FilterOp(OperatorPtr child, expr::ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  RQO_CHECK(predicate_ != nullptr);
}

Result<RowSet> FilterOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  ctx->meter.ChargeCpuTuples(ctx->cost_model, input.num_rows());
  // The predicate runs over the gathered input: an operator-built table,
  // never versioned, so every row is visible at every snapshot.
  std::vector<Rid> rows = SelectRows(input.Materialize(), predicate_.get(),
                                     storage::kLatestSnapshot);
  RQO_RETURN_NOT_OK(
      ctx->TickRows(rows.size(), ApproximateRowBytes(input.schema())));
  RowSet out = input.Take("filter", std::move(rows));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string FilterOp::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

std::vector<const PhysicalOperator*> FilterOp::children() const {
  return {child_.get()};
}

// ----- LimitOp -----

LimitOp::LimitOp(OperatorPtr child, uint64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Result<RowSet> LimitOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  std::vector<Rid> rows(std::min(input.num_rows(), limit_));
  std::iota(rows.begin(), rows.end(), Rid{0});
  RQO_RETURN_NOT_OK(
      ctx->TickRows(rows.size(), ApproximateRowBytes(input.schema())));
  RowSet out = input.Take("limit", std::move(rows));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string LimitOp::Describe() const {
  return StrPrintf("Limit(%llu)", static_cast<unsigned long long>(limit_));
}

std::vector<const PhysicalOperator*> LimitOp::children() const {
  return {child_.get()};
}

// ----- ProjectOp -----

ProjectOp::ProjectOp(OperatorPtr child, std::vector<std::string> columns)
    : child_(std::move(child)), columns_(std::move(columns)) {}

Result<RowSet> ProjectOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       ProjectSchema(input.schema(), columns_));
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> col_idx,
                       ResolveColumns(input.schema(), columns_));
  const uint64_t n = input.num_rows();
  RQO_RETURN_NOT_OK(ctx->TickRows(n, ApproximateRowBytes(schema)));
  std::vector<std::pair<size_t, size_t>> sources;
  sources.reserve(col_idx.size());
  for (size_t c : col_idx) sources.emplace_back(0, c);
  RowSet out = RowSet::Combine("project", std::move(schema), n,
                               {{&input, nullptr}}, sources);
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return out;
}

std::string ProjectOp::Describe() const {
  return "Project(" + StrJoin(columns_, ", ") + ")";
}

std::vector<const PhysicalOperator*> ProjectOp::children() const {
  return {child_.get()};
}

// ----- ScalarAggregateOp -----

ScalarAggregateOp::ScalarAggregateOp(OperatorPtr child,
                                     std::vector<AggSpec> aggs)
    : child_(std::move(child)), aggs_(std::move(aggs)) {
  RQO_CHECK(!aggs_.empty());
}

Result<RowSet> ScalarAggregateOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  ctx->aggregate_input_rows = input.num_rows();
  ctx->meter.ChargeCpuTuples(ctx->cost_model, input.num_rows());
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> agg_cols,
                       AggInputColumns(input.schema(), aggs_));
  std::vector<AggState> states(aggs_.size());
  Accumulate(input, aggs_, agg_cols, [](uint64_t) { return size_t{0}; },
             states.data());
  RQO_RETURN_NOT_OK(ctx->CheckPoint());
  RQO_ASSIGN_OR_RETURN(storage::Schema schema,
                       AggOutputSchema({}, input.schema(), aggs_));
  Table out("aggregate", std::move(schema));
  AppendAggColumns(aggs_, states.data(), 0, &out);
  out.FinalizeBulkLoad();
  RQO_RETURN_NOT_OK(ctx->Tick(1, ApproximateRowBytes(out.schema())));
  ctx->meter.ChargeOutputTuples(ctx->cost_model, 1);
  return RowSet::Own(std::move(out));
}

std::string ScalarAggregateOp::Describe() const {
  return "ScalarAggregate(" + DescribeAggs(aggs_) + ")";
}

std::vector<const PhysicalOperator*> ScalarAggregateOp::children() const {
  return {child_.get()};
}

// ----- GroupByAggregateOp -----

GroupByAggregateOp::GroupByAggregateOp(OperatorPtr child,
                                       std::vector<std::string> group_columns,
                                       std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggs_(std::move(aggs)) {
  RQO_CHECK(!group_columns_.empty());
}

Result<RowSet> GroupByAggregateOp::Execute(ExecContext* ctx) const {
  RQO_ASSIGN_OR_RETURN(const RowSet input, RunChild(*child_, ctx));
  ctx->aggregate_input_rows = input.num_rows();
  ctx->meter.ChargeCpuTuples(ctx->cost_model, input.num_rows());
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> group_idx,
                       ResolveColumns(input.schema(), group_columns_));
  for (size_t g : group_idx) {
    if (!storage::IsIntegerPhysical(input.schema().column(g).type)) {
      return Status::InvalidArgument(
          "group-by key " + input.schema().column(g).name +
          " must be integer-physical");
    }
  }
  RQO_ASSIGN_OR_RETURN(const std::vector<size_t> agg_cols,
                       AggInputColumns(input.schema(), aggs_));

  // Groups live in a hash table in first-seen order; group g's states are
  // states[g*aggs, (g+1)*aggs). The group table is transient workspace,
  // charged per inserted group and released when the operator finishes.
  fault::MemoryReservation workspace(ctx->governor);
  const size_t k = group_idx.size();
  const size_t num_aggs = aggs_.size();
  const uint64_t group_bytes = (k + num_aggs * 4 + 4) * sizeof(int64_t);
  std::vector<ColumnView> key_cols;
  key_cols.reserve(k);
  for (size_t g : group_idx) key_cols.push_back(input.column(g));
  const uint64_t n = input.num_rows();
  GroupTable table(k);
  std::vector<size_t> group_of(n);
  std::vector<int64_t> key(k);  // reused probe buffer
  for (uint64_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < k; ++g) key[g] = key_cols[g].Int64At(i);
    const auto [group, inserted] = table.FindOrInsert(key.data());
    if (inserted) RQO_RETURN_NOT_OK(workspace.Grow(group_bytes));
    group_of[i] = group;
  }
  std::vector<AggState> states(table.size() * num_aggs);
  Accumulate(input, aggs_, agg_cols,
             [&group_of](uint64_t i) { return group_of[i]; }, states.data());
  RQO_RETURN_NOT_OK(ctx->CheckPoint());

  // Output in ascending key order: one sort of the distinct keys.
  const size_t num_groups = table.size();
  std::vector<size_t> order(num_groups);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&table, k](size_t a, size_t b) {
    return std::lexicographical_compare(table.key(a), table.key(a) + k,
                                        table.key(b), table.key(b) + k);
  });

  RQO_ASSIGN_OR_RETURN(
      storage::Schema schema,
      AggOutputSchema(group_columns_, input.schema(), aggs_));
  Table out("groupby", std::move(schema));
  RQO_RETURN_NOT_OK(
      ctx->TickRows(num_groups, ApproximateRowBytes(out.schema())));
  for (size_t group : order) {
    for (size_t g = 0; g < k; ++g) {
      out.mutable_column(g)->AppendInt64(table.key(group)[g]);
    }
    AppendAggColumns(aggs_, &states[group * num_aggs], k, &out);
  }
  out.FinalizeBulkLoad();
  ctx->meter.ChargeOutputTuples(ctx->cost_model, out.num_rows());
  return RowSet::Own(std::move(out));
}

std::string GroupByAggregateOp::Describe() const {
  return "GroupByAggregate(" + StrJoin(group_columns_, ", ") + "; " +
         DescribeAggs(aggs_) + ")";
}

std::vector<const PhysicalOperator*> GroupByAggregateOp::children() const {
  return {child_.get()};
}

}  // namespace exec
}  // namespace robustqo
