#include "storage/table.h"

#include "util/macros.h"

namespace robustqo {
namespace storage {

size_t ColumnVector::size() const {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kString:
      return strings_.size();
  }
  return 0;
}

void ColumnVector::AppendInt64(int64_t v) {
  RQO_DCHECK(IsIntegerPhysical(type_));
  ints_.push_back(v);
}

void ColumnVector::AppendDouble(double v) {
  RQO_DCHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
}

void ColumnVector::AppendString(std::string v) {
  RQO_DCHECK(type_ == DataType::kString);
  strings_.push_back(std::move(v));
}

void ColumnVector::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      AppendInt64(v.AsInt64());
      return;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      return;
    case DataType::kString:
      AppendString(v.AsString());
      return;
  }
}

Value ColumnVector::ValueAt(Rid rid) const {
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(ints_[rid]);
    case DataType::kDate:
      return Value::Date(ints_[rid]);
    case DataType::kDouble:
      return Value::Double(doubles_[rid]);
    case DataType::kString:
      return Value::String(strings_[rid]);
  }
  return Value();
}

namespace {

template <typename T>
void GatherInto(const std::vector<T>& source, std::span<const Rid> rids,
                std::vector<T>* dest) {
  const size_t base = dest->size();
  dest->resize(base + rids.size());
  T* out = dest->data() + base;
  for (size_t i = 0; i < rids.size(); ++i) out[i] = source[rids[i]];
}

}  // namespace

void ColumnVector::AppendGather(const ColumnVector& source,
                                std::span<const Rid> rids) {
  RQO_CHECK_MSG(type_ == source.type_, "gather between column types");
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      GatherInto(source.ints_, rids, &ints_);
      return;
    case DataType::kDouble:
      GatherInto(source.doubles_, rids, &doubles_);
      return;
    case DataType::kString:
      GatherInto(source.strings_, rids, &strings_);
      return;
  }
}

void ColumnVector::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      ints_.reserve(n);
      return;
    case DataType::kDouble:
      doubles_.reserve(n);
      return;
    case DataType::kString:
      strings_.reserve(n);
      return;
  }
}

void ColumnVector::Truncate(size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      if (n < ints_.size()) ints_.resize(n);
      return;
    case DataType::kDouble:
      if (n < doubles_.size()) doubles_.resize(n);
      return;
    case DataType::kString:
      if (n < strings_.size()) strings_.resize(n);
      return;
  }
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const auto& col : schema_.columns()) {
    columns_.push_back(std::make_unique<ColumnVector>(col.type));
  }
}

void Table::AppendRow(const std::vector<Value>& values) {
  RQO_CHECK_MSG(values.size() == schema_.num_columns(),
                "row arity mismatch");
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i]->Append(values[i]);
  }
  ++num_rows_;
}

void Table::AppendGather(const Table& source, std::span<const Rid> rids,
                         const std::vector<size_t>& columns) {
  RQO_CHECK_MSG(columns.size() == columns_.size(), "gather arity mismatch");
  for (size_t j = 0; j < columns.size(); ++j) {
    columns_[j]->AppendGather(source.column(columns[j]), rids);
  }
  num_rows_ += rids.size();
}

const ColumnVector& Table::column(const std::string& name) const {
  auto idx = schema_.ColumnIndex(name);
  RQO_CHECK_MSG(idx.ok(), idx.status().ToString().c_str());
  return *columns_[idx.value()];
}

std::vector<Value> Table::RowAt(Rid rid) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const auto& col : columns_) row.push_back(col->ValueAt(rid));
  return row;
}

void Table::FinalizeBulkLoad() {
  RQO_CHECK(!columns_.empty());
  const size_t n = columns_[0]->size();
  for (const auto& col : columns_) {
    RQO_CHECK_MSG(col->size() == n, "ragged bulk load");
  }
  num_rows_ = n;
}

void Table::Reserve(size_t n) {
  for (auto& col : columns_) col->Reserve(n);
}

void Table::EnsureVersioned() {
  if (versioned_) return;
  versioned_ = true;
  insert_epochs_.assign(num_rows_, 0);
  delete_epochs_.assign(num_rows_, 0);
}

void Table::AppendRowVersioned(const std::vector<Value>& values,
                               uint64_t epoch) {
  EnsureVersioned();
  AppendRow(values);
  insert_epochs_.push_back(epoch);
  delete_epochs_.push_back(0);
}

bool Table::MarkDeleted(Rid rid, uint64_t epoch) {
  EnsureVersioned();
  RQO_DCHECK(rid < num_rows_);
  if (delete_epochs_[rid] != 0) return false;
  delete_epochs_[rid] = epoch;
  return true;
}

void Table::ClearDelete(Rid rid) {
  RQO_DCHECK(versioned_ && rid < num_rows_);
  delete_epochs_[rid] = 0;
}

void Table::TruncateRows(uint64_t n) {
  // Dropping nothing is a no-op on any table: a rollback truncates to the
  // pre-batch row count even when the batch never versioned the table.
  if (n >= num_rows_) return;
  RQO_DCHECK(versioned_);
  for (auto& col : columns_) col->Truncate(n);
  insert_epochs_.resize(n);
  delete_epochs_.resize(n);
  num_rows_ = n;
}

uint64_t Table::VisibleRowCount(uint64_t snapshot) const {
  if (!versioned_) return num_rows_;
  uint64_t visible = 0;
  for (Rid r = 0; r < num_rows_; ++r) {
    if (VisibleAt(r, snapshot)) ++visible;
  }
  return visible;
}

void Table::RevertWritesAfter(uint64_t epoch) {
  if (!versioned_) return;
  // Appends are stamped with monotonically nondecreasing epochs, so the
  // rows to drop form a suffix.
  uint64_t keep = num_rows_;
  while (keep > 0 && insert_epochs_[keep - 1] > epoch) --keep;
  TruncateRows(keep);
  for (Rid r = 0; r < num_rows_; ++r) {
    if (delete_epochs_[r] > epoch) delete_epochs_[r] = 0;
  }
}

namespace {

inline uint64_t Fnv1aMix(uint64_t hash, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

uint64_t Table::VisibleChecksum(uint64_t snapshot) const {
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (Rid r = 0; r < num_rows_; ++r) {
    if (!VisibleAt(r, snapshot)) continue;
    for (const auto& col : columns_) {
      switch (col->type()) {
        case DataType::kInt64:
        case DataType::kDate: {
          const int64_t v = col->Int64At(r);
          hash = Fnv1aMix(hash, &v, sizeof(v));
          break;
        }
        case DataType::kDouble: {
          const double v = col->DoubleAt(r);
          hash = Fnv1aMix(hash, &v, sizeof(v));
          break;
        }
        case DataType::kString: {
          const std::string& v = col->StringAt(r);
          const uint64_t len = v.size();
          hash = Fnv1aMix(hash, &len, sizeof(len));
          hash = Fnv1aMix(hash, v.data(), v.size());
          break;
        }
      }
    }
  }
  return hash;
}

}  // namespace storage
}  // namespace robustqo
