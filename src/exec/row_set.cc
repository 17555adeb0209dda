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
RowSlice Compose(RowSlice slice, RidList rows, Workspace* workspace) {
  if (rows == nullptr) return slice;
  if (slice.rids == nullptr) {
    slice.rids = rows;
    return slice;
  }
  const Rid* from = slice.rids->data();
  RidBuffer& rids = workspace->Take<Rid>(rows->size());
  for (size_t i = 0; i < rids.size(); ++i) rids[i] = from[(*rows)[i]];
  slice.rids = &rids;
  return slice;
}

// The first `n` values of `view`: `data` itself when unselected, else
// gathered through the view's RIDs into a workspace buffer.
template <typename T>
const T* Values(const ColumnView& view, uint64_t n, const T* data,
                Workspace* workspace) {
  if (view.rids == nullptr) return data;
  Buffer<T>& out = workspace->Take<T>(n);
  for (uint64_t i = 0; i < n; ++i) out[i] = data[view.rids[i]];
  return out.data();
}

}  // namespace

const int64_t* ColumnView::Int64Values(uint64_t n,
                                       Workspace* workspace) const {
  RQO_CHECK_MSG(storage::IsIntegerPhysical(type()),
                "integer read of a non-integer column");
  return Values(*this, n, column->int64_data(), workspace);
}

const double* ColumnView::DoubleValues(uint64_t n,
                                       Workspace* workspace) const {
  RQO_CHECK_MSG(type() == storage::DataType::kDouble,
                "double read of a non-double column");
  return Values(*this, n, column->double_data(), workspace);
}

RowSet RowSet::Select(std::string name, storage::Schema schema,
                      const Table* table, const std::vector<size_t>& columns,
                      const RidBuffer& rids) {
  RowSet out = Identity(std::move(name), std::move(schema), table, columns,
                        rids.size());
  out.slices_[0].rids = &rids;
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
                       const std::vector<std::pair<size_t, size_t>>& sources,
                       Workspace* workspace) {
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
      out.slices_.push_back(
          Compose(set.slices_[s], inputs[input].rows, workspace));
    }
    out.columns_.emplace_back(dest, column);
  }
  return out;
}

RowSet RowSet::Take(std::string name, const RidBuffer& rows,
                    Workspace* workspace) const {
  std::vector<std::pair<size_t, size_t>> sources(columns_.size());
  for (size_t c = 0; c < sources.size(); ++c) sources[c] = {0, c};
  return Combine(std::move(name), schema_, rows.size(), {{this, &rows}},
                 sources, workspace);
}

ColumnView RowSet::column(size_t c) const {
  const auto& [s, column] = columns_[c];
  const RowSlice& slice = slices_[s];
  return {&slice.table->column(column),
          slice.rids == nullptr ? nullptr : slice.rids->data()};
}

Table RowSet::Materialize(Workspace* workspace) const {
  Table out(name_, schema_);
  // Row i of an unselected slice is row i: such slices gather through one
  // identity list, made on first use.
  const RidBuffer* all = nullptr;
  const auto identity = [&]() -> const RidBuffer& {
    if (all == nullptr) {
      RidBuffer& rids = workspace->Take<Rid>(num_rows_);
      std::iota(rids.begin(), rids.end(), Rid{0});
      all = &rids;
    }
    return *all;
  };
  if (columns_.empty()) {
    // No values to gather; only the row count carries over.
    out.AppendGather(out, identity(), {});
    return out;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const auto& [s, column] = columns_[c];
    const RowSlice& slice = slices_[s];
    out.mutable_column(c)->AppendGather(
        slice.table->column(column),
        slice.rids == nullptr ? identity() : *slice.rids);
  }
  out.FinalizeBulkLoad();
  return out;
}

}  // namespace exec
}  // namespace robustqo
