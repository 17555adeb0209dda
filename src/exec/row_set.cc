#include "exec/row_set.h"

#include <numeric>

#include "util/macros.h"

namespace robustqo {
namespace exec {

using storage::Rid;
using storage::Table;

namespace {

// `slice` restricted to its rows `rows` (all of them when null): an
// unselected slice shares `rows`; a selected one gathers its RIDs.
RowSlice Compose(RowSlice slice, const RidList& rows) {
  if (rows == nullptr) return slice;
  if (slice.rids == nullptr) {
    slice.rids = rows;
    return slice;
  }
  const std::vector<Rid>& from = *slice.rids;
  auto rids = std::make_shared<std::vector<Rid>>(rows->size());
  for (size_t i = 0; i < rids->size(); ++i) (*rids)[i] = from[(*rows)[i]];
  slice.rids = std::move(rids);
  return slice;
}

template <typename T, typename Read>
std::vector<T> Values(const ColumnView& view, uint64_t n, const Read& read) {
  std::vector<T> out(n);
  if (view.rids == nullptr) {
    for (uint64_t i = 0; i < n; ++i) out[i] = read(i);
  } else {
    for (uint64_t i = 0; i < n; ++i) out[i] = read(view.rids[i]);
  }
  return out;
}

}  // namespace

std::vector<int64_t> ColumnView::Int64Values(uint64_t n) const {
  RQO_CHECK_MSG(storage::IsIntegerPhysical(type()),
                "integer read of a non-integer column");
  return Values<int64_t>(*this, n,
                         [this](Rid rid) { return column->Int64At(rid); });
}

std::vector<double> ColumnView::DoubleValues(uint64_t n) const {
  RQO_CHECK_MSG(type() == storage::DataType::kDouble,
                "double read of a non-double column");
  return Values<double>(*this, n,
                        [this](Rid rid) { return column->DoubleAt(rid); });
}

RowSet RowSet::Select(std::string name, storage::Schema schema,
                      const Table* table, const std::vector<size_t>& columns,
                      std::vector<Rid> rids) {
  RowSet out = Identity(std::move(name), std::move(schema), table, columns,
                        rids.size());
  out.slices_[0].rids =
      std::make_shared<const std::vector<Rid>>(std::move(rids));
  return out;
}

RowSet RowSet::Identity(std::string name, storage::Schema schema,
                        const Table* table, const std::vector<size_t>& columns,
                        uint64_t num_rows) {
  RowSet out;
  out.name_ = std::move(name);
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows;
  out.slices_.push_back({table, nullptr, nullptr});
  for (size_t c : columns) out.columns_.emplace_back(0, c);
  return out;
}

RowSet RowSet::Own(Table table) {
  auto owned = std::make_shared<const Table>(std::move(table));
  std::vector<size_t> columns(owned->schema().num_columns());
  std::iota(columns.begin(), columns.end(), size_t{0});
  RowSet out = Identity(owned->name(), owned->schema(), owned.get(), columns,
                        owned->num_rows());
  out.slices_[0].owned = std::move(owned);
  return out;
}

RowSet RowSet::Combine(std::string name, storage::Schema schema,
                       uint64_t num_rows, const std::vector<Input>& inputs,
                       const std::vector<std::pair<size_t, size_t>>& sources) {
  RowSet out;
  out.name_ = std::move(name);
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows;
  // slot[i][s]: the output slice built from slice s of input i.
  std::vector<std::vector<size_t>> slot(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    slot[i].assign(inputs[i].set->slices_.size(), SIZE_MAX);
  }
  out.columns_.reserve(sources.size());
  for (const auto& [input, c] : sources) {
    const RowSet& set = *inputs[input].set;
    const auto [s, column] = set.columns_[c];
    size_t& dest = slot[input][s];
    if (dest == SIZE_MAX) {
      dest = out.slices_.size();
      out.slices_.push_back(Compose(set.slices_[s], inputs[input].rows));
    }
    out.columns_.emplace_back(dest, column);
  }
  return out;
}

RowSet RowSet::Take(std::string name, std::vector<Rid> rows) const {
  std::vector<std::pair<size_t, size_t>> sources(columns_.size());
  for (size_t c = 0; c < sources.size(); ++c) sources[c] = {0, c};
  const uint64_t n = rows.size();
  return Combine(std::move(name), schema_, n,
                 {{this, std::make_shared<const std::vector<Rid>>(
                             std::move(rows))}},
                 sources);
}

ColumnView RowSet::column(size_t c) const {
  const auto& [s, column] = columns_[c];
  const RowSlice& slice = slices_[s];
  return {&slice.table->column(column),
          slice.rids == nullptr ? nullptr : slice.rids->data()};
}

Table RowSet::Materialize() const {
  Table out(name_, schema_);
  if (columns_.empty()) {
    // No values to gather; only the row count carries over.
    out.AppendGather(out, std::vector<Rid>(num_rows_), {});
    return out;
  }
  std::vector<Rid> all;  // row i of an unselected slice is row i
  for (size_t c = 0; c < columns_.size(); ++c) {
    const auto& [s, column] = columns_[c];
    const RowSlice& slice = slices_[s];
    if (slice.rids == nullptr && all.size() != num_rows_) {
      all.resize(num_rows_);
      std::iota(all.begin(), all.end(), Rid{0});
    }
    out.mutable_column(c)->AppendGather(
        slice.table->column(column),
        slice.rids == nullptr ? all : *slice.rids);
  }
  out.FinalizeBulkLoad();
  return out;
}

}  // namespace exec
}  // namespace robustqo
