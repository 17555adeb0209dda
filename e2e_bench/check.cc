#include "check.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/string_util.h"

namespace robustqo {
namespace e2e {

bool SameRows(const storage::Table& a, const storage::Table& b,
              std::string* why) {
  if (a.num_rows() != b.num_rows() ||
      a.schema().num_columns() != b.schema().num_columns()) {
    *why = StrPrintf("shape %llux%zu vs %llux%zu",
                     static_cast<unsigned long long>(a.num_rows()),
                     a.schema().num_columns(),
                     static_cast<unsigned long long>(b.num_rows()),
                     b.schema().num_columns());
    return false;
  }
  for (storage::Rid r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const storage::Value va = a.ValueAt(r, c);
      const storage::Value vb = b.ValueAt(r, c);
      const bool same =
          va.type() == storage::DataType::kDouble
              ? std::abs(va.AsDouble() - vb.AsDouble()) <=
                    1e-6 * std::max(1.0, std::abs(va.AsDouble()))
              : va.ToString() == vb.ToString();
      if (!same) {
        *why = StrPrintf("row %llu col %zu: %s vs %s",
                         static_cast<unsigned long long>(r), c,
                         va.ToString().c_str(), vb.ToString().c_str());
        return false;
      }
    }
  }
  return true;
}

void CheckAgainstHistogram(core::Database* db,
                           const std::vector<ReadRecord>& reads,
                           CheckReport* report) {
  // One reference per (statement, snapshot): every read of that pair must
  // agree with it, whatever plan or T% served it.
  std::map<std::pair<std::string, uint64_t>, std::vector<const ReadRecord*>>
      groups;
  for (const ReadRecord& read : reads) {
    groups[{read.sql, read.snapshot}].push_back(&read);
  }
  for (const auto& [key, group] : groups) {
    ++report->references;
    Result<opt::QuerySpec> spec = db->ParseSql(key.first);
    Result<opt::PlannedQuery> plan =
        spec.ok() ? db->Plan(spec.value(), core::EstimatorKind::kHistogram)
                  : Result<opt::PlannedQuery>(spec.status());
    Result<core::ExecutionResult> reference =
        plan.ok() ? db->ExecutePlan(plan.value(), key.second)
                  : Result<core::ExecutionResult>(plan.status());
    if (!reference.ok()) {
      for (size_t i = 0; i < group.size(); ++i) {
        report->Fail("reference failed: " + reference.status().ToString() +
                     " for " + key.first);
      }
      continue;
    }
    bool differs = false;
    for (const ReadRecord* read : group) {
      ++report->checked;
      differs = differs || read->plan_label != reference.value().plan_label;
      std::string why;
      if (!SameRows(*read->rows, reference.value().rows, &why)) {
        report->Fail(StrPrintf("request %llu at snapshot %llu: %s in %s",
                               static_cast<unsigned long long>(read->request_id),
                               static_cast<unsigned long long>(key.second),
                               why.c_str(), key.first.c_str()));
      }
    }
    if (differs) ++report->plans_differ;
  }
}

std::map<std::string, uint64_t> VisibleRowCounts(const core::Database& db) {
  std::map<std::string, uint64_t> counts;
  for (const std::string& name : db.catalog().TableNames()) {
    counts[name] = db.catalog().GetTable(name)->VisibleRowCount();
  }
  return counts;
}

void ApplyDml(const std::string& table, const exec::DmlResult& result,
              std::map<std::string, int64_t>* delta) {
  (*delta)[table] += static_cast<int64_t>(result.rows_inserted) -
                     static_cast<int64_t>(result.rows_deleted);
}

void ReconcileRowCounts(const core::Database& db,
                        const std::map<std::string, uint64_t>& initial,
                        const std::map<std::string, int64_t>& delta,
                        CheckReport* report) {
  const std::map<std::string, uint64_t> final_counts = VisibleRowCounts(db);
  for (const auto& [table, rows] : initial) {
    const auto it = delta.find(table);
    const int64_t expected =
        static_cast<int64_t>(rows) + (it == delta.end() ? 0 : it->second);
    const int64_t actual = static_cast<int64_t>(final_counts.at(table));
    if (actual != expected) {
      report->Fail(StrPrintf("table %s holds %lld rows, writes imply %lld",
                             table.c_str(), static_cast<long long>(actual),
                             static_cast<long long>(expected)));
    }
  }
}

}  // namespace e2e
}  // namespace robustqo
