#include "expr/expression.h"

#include <cmath>

#include "util/macros.h"
#include "util/string_util.h"

namespace robustqo {
namespace expr {

using storage::Rid;
using storage::Table;
using storage::Value;

namespace {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpSymbol(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

// A double NaN. Comparisons against one follow IEEE 754 (false, except
// `<>`), as the batch kernels do; Value::Compare would call it equal to
// everything.
bool IsNaN(const Value& v) {
  return v.type() == storage::DataType::kDouble && std::isnan(v.AsDouble());
}

bool Truthy(const Value& v) {
  if (v.type() == storage::DataType::kString) return !v.AsString().empty();
  return v.NumericValue() != 0.0;
}

}  // namespace

bool Expr::EvaluateBool(const Table& table, Rid rid) const {
  return Truthy(Evaluate(table, rid));
}

// ----- ColumnRef -----

Value ColumnRefExpr::Evaluate(const Table& table, Rid rid) const {
  auto idx = table.schema().ColumnIndex(name_);
  RQO_CHECK_MSG(idx.ok(), ("unbound column " + name_).c_str());
  return table.ValueAt(rid, idx.value());
}

void ColumnRefExpr::CollectColumns(std::set<std::string>* out) const {
  out->insert(name_);
}

// ----- Literal -----

Value LiteralExpr::Evaluate(const Table& /*table*/, Rid /*rid*/) const {
  return value_;
}

void LiteralExpr::CollectColumns(std::set<std::string>* /*out*/) const {}

// ----- Comparison -----

Value ComparisonExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool ComparisonExpr::EvaluateBool(const Table& table, Rid rid) const {
  const Value a = lhs_->Evaluate(table, rid);
  const Value b = rhs_->Evaluate(table, rid);
  const int c = a.Compare(b);  // first: it raises string type errors
  if (IsNaN(a) || IsNaN(b)) return op_ == CompareOp::kNe;
  switch (op_) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

void ComparisonExpr::CollectColumns(std::set<std::string>* out) const {
  lhs_->CollectColumns(out);
  rhs_->CollectColumns(out);
}

std::string ComparisonExpr::ToString() const {
  return StrPrintf("(%s %s %s)", lhs_->ToString().c_str(),
                   CompareOpSymbol(op_), rhs_->ToString().c_str());
}

// ----- Between -----

Value BetweenExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool BetweenExpr::EvaluateBool(const Table& table, Rid rid) const {
  const Value v = expr_->Evaluate(table, rid);
  const bool in_range = v.Compare(lo_) >= 0 && v.Compare(hi_) <= 0;
  return in_range && !IsNaN(v) && !IsNaN(lo_) && !IsNaN(hi_);
}

void BetweenExpr::CollectColumns(std::set<std::string>* out) const {
  expr_->CollectColumns(out);
}

std::string BetweenExpr::ToString() const {
  return StrPrintf("(%s BETWEEN %s AND %s)", expr_->ToString().c_str(),
                   lo_.ToString().c_str(), hi_.ToString().c_str());
}

// ----- And / Or / Not -----

Value AndExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool AndExpr::EvaluateBool(const Table& table, Rid rid) const {
  for (const auto& child : children_) {
    if (!child->EvaluateBool(table, rid)) return false;
  }
  return true;
}

void AndExpr::CollectColumns(std::set<std::string>* out) const {
  for (const auto& child : children_) child->CollectColumns(out);
}

std::string AndExpr::ToString() const {
  if (children_.empty()) return "TRUE";
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) parts.push_back(c->ToString());
  return StrPrintf("(%s)", StrJoin(parts, " AND ").c_str());
}

Value OrExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool OrExpr::EvaluateBool(const Table& table, Rid rid) const {
  for (const auto& child : children_) {
    if (child->EvaluateBool(table, rid)) return true;
  }
  return false;
}

void OrExpr::CollectColumns(std::set<std::string>* out) const {
  for (const auto& child : children_) child->CollectColumns(out);
}

std::string OrExpr::ToString() const {
  if (children_.empty()) return "FALSE";
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) parts.push_back(c->ToString());
  return StrPrintf("(%s)", StrJoin(parts, " OR ").c_str());
}

Value NotExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool NotExpr::EvaluateBool(const Table& table, Rid rid) const {
  return !child_->EvaluateBool(table, rid);
}

void NotExpr::CollectColumns(std::set<std::string>* out) const {
  child_->CollectColumns(out);
}

std::string NotExpr::ToString() const {
  return StrPrintf("(NOT %s)", child_->ToString().c_str());
}

// ----- Arithmetic -----

Value ArithmeticExpr::Evaluate(const Table& table, Rid rid) const {
  const Value a = lhs_->Evaluate(table, rid);
  const Value b = rhs_->Evaluate(table, rid);
  // Integer-physical op integer-physical stays integral; anything with a
  // double widens. Division always widens (SQL real division).
  const bool both_int = a.type() != storage::DataType::kDouble &&
                        b.type() != storage::DataType::kDouble &&
                        op_ != ArithOp::kDiv;
  if (both_int) {
    const int64_t x = a.AsInt64();
    const int64_t y = b.AsInt64();
    switch (op_) {
      case ArithOp::kAdd:
        // Date + integer days stays a date; date + date degrades to int.
        if (a.type() == storage::DataType::kDate &&
            b.type() == storage::DataType::kInt64) {
          return Value::Date(x + y);
        }
        return Value::Int64(x + y);
      case ArithOp::kSub:
        if (a.type() == storage::DataType::kDate &&
            b.type() == storage::DataType::kInt64) {
          return Value::Date(x - y);
        }
        return Value::Int64(x - y);
      case ArithOp::kMul:
        return Value::Int64(x * y);
      case ArithOp::kDiv:
        break;  // unreachable: division widens
    }
  }
  const double x = a.NumericValue();
  const double y = b.NumericValue();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(x + y);
    case ArithOp::kSub:
      return Value::Double(x - y);
    case ArithOp::kMul:
      return Value::Double(x * y);
    case ArithOp::kDiv:
      return Value::Double(x / y);
  }
  return Value::Double(0.0);
}

void ArithmeticExpr::CollectColumns(std::set<std::string>* out) const {
  lhs_->CollectColumns(out);
  rhs_->CollectColumns(out);
}

std::string ArithmeticExpr::ToString() const {
  return StrPrintf("(%s %s %s)", lhs_->ToString().c_str(),
                   ArithOpSymbol(op_), rhs_->ToString().c_str());
}

// ----- StringContains -----

Value StringContainsExpr::Evaluate(const Table& table, Rid rid) const {
  return Value::Int64(EvaluateBool(table, rid) ? 1 : 0);
}

bool StringContainsExpr::EvaluateBool(const Table& table, Rid rid) const {
  const Value v = expr_->Evaluate(table, rid);
  return Contains(v.AsString(), needle_);
}

void StringContainsExpr::CollectColumns(std::set<std::string>* out) const {
  expr_->CollectColumns(out);
}

std::string StringContainsExpr::ToString() const {
  return StrPrintf("(%s LIKE '%%%s%%')", expr_->ToString().c_str(),
                   needle_.c_str());
}

// ----- Factories -----

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr LitDate(int64_t days) { return Lit(Value::Date(days)); }

ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ComparisonExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kNe, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kGe, std::move(lhs), std::move(rhs));
}

ExprPtr Between(ExprPtr e, Value lo, Value hi) {
  return std::make_shared<BetweenExpr>(std::move(e), std::move(lo),
                                       std::move(hi));
}

ExprPtr And(std::vector<ExprPtr> children) {
  return std::make_shared<AndExpr>(std::move(children));
}

ExprPtr Or(std::vector<ExprPtr> children) {
  return std::make_shared<OrExpr>(std::move(children));
}

ExprPtr Not(ExprPtr child) {
  return std::make_shared<NotExpr>(std::move(child));
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithmeticExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr StringContains(ExprPtr str_expr, std::string needle) {
  return std::make_shared<StringContainsExpr>(std::move(str_expr),
                                              std::move(needle));
}

uint64_t CountSatisfying(const Expr& predicate, const Table& table) {
  uint64_t count = 0;
  const uint64_t n = table.num_rows();
  for (Rid rid = 0; rid < n; ++rid) {
    if (predicate.EvaluateBool(table, rid)) ++count;
  }
  return count;
}

}  // namespace expr
}  // namespace robustqo
