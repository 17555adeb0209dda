#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace robustqo {
namespace storage {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"name", DataType::kString},
                 {"ship", DataType::kDate}});
}

TEST(SchemaTest, LookupByName) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 4u);
  ASSERT_TRUE(s.ColumnIndex("price").ok());
  EXPECT_EQ(s.ColumnIndex("price").value(), 1u);
  EXPECT_TRUE(s.HasColumn("ship"));
  EXPECT_FALSE(s.HasColumn("nope"));
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, ColumnMetadata) {
  Schema s = TestSchema();
  EXPECT_EQ(s.column(0).name, "id");
  EXPECT_EQ(s.column(3).type, DataType::kDate);
}

TEST(SchemaTest, ToStringListsColumns) {
  EXPECT_EQ(TestSchema().ToString(),
            "id INT64, price DOUBLE, name STRING, ship DATE");
}

TEST(SchemaTest, EmptySchema) {
  Schema s(std::vector<ColumnDef>{});
  EXPECT_EQ(s.num_columns(), 0u);
}

TEST(TableTest, AppendRowAndRead) {
  Table t("test", TestSchema());
  t.AppendRow({Value::Int64(1), Value::Double(9.5), Value::String("a"),
               Value::Date(100)});
  t.AppendRow({Value::Int64(2), Value::Double(8.5), Value::String("b"),
               Value::Date(200)});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(t.ValueAt(1, 1).AsDouble(), 8.5);
  EXPECT_EQ(t.ValueAt(1, 2).AsString(), "b");
  EXPECT_EQ(t.ValueAt(0, 3).type(), DataType::kDate);
}

TEST(TableTest, RowAtReturnsFullRow) {
  Table t("test", TestSchema());
  t.AppendRow({Value::Int64(7), Value::Double(1.0), Value::String("x"),
               Value::Date(5)});
  std::vector<Value> row = t.RowAt(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].AsInt64(), 7);
  EXPECT_EQ(row[3].AsInt64(), 5);
}

TEST(TableTest, ColumnByName) {
  Table t("test", TestSchema());
  t.AppendRow({Value::Int64(3), Value::Double(2.0), Value::String("y"),
               Value::Date(9)});
  EXPECT_EQ(t.column("id").Int64At(0), 3);
  EXPECT_EQ(t.column("price").DoubleAt(0), 2.0);
  EXPECT_EQ(t.column("name").StringAt(0), "y");
}

TEST(TableTest, BulkLoadThroughColumns) {
  Table t("bulk", Schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    t.mutable_column(0)->AppendInt64(i);
    t.mutable_column(1)->AppendDouble(i * 0.5);
  }
  t.FinalizeBulkLoad();
  EXPECT_EQ(t.num_rows(), 100u);
  EXPECT_EQ(t.column(0).Int64At(99), 99);
  EXPECT_EQ(t.column(1).DoubleAt(50), 25.0);
}

TEST(ColumnVectorTest, TypedAppendAndBoxedRead) {
  ColumnVector c(DataType::kDate);
  c.AppendInt64(12345);
  EXPECT_EQ(c.size(), 1u);
  Value v = c.ValueAt(0);
  EXPECT_EQ(v.type(), DataType::kDate);
  EXPECT_EQ(v.AsInt64(), 12345);
}

TEST(ColumnVectorTest, BoxedAppend) {
  ColumnVector c(DataType::kString);
  c.Append(Value::String("hello"));
  EXPECT_EQ(c.StringAt(0), "hello");
}

TEST(ColumnVectorTest, GatherAppendsTypedEntriesInRidOrder) {
  Table t("test", TestSchema());
  for (int64_t i = 0; i < 5; ++i) {
    t.AppendRow({Value::Int64(i * 10), Value::Double(i + 0.5),
                 Value::String("s" + std::to_string(i)), Value::Date(100 + i)});
  }
  // Out of order, with a repeat.
  const std::vector<Rid> rids = {4, 0, 2, 2, 1};
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    ColumnVector dest(t.schema().column(c).type);
    dest.AppendGather(t.column(c), rids);
    ASSERT_EQ(dest.size(), rids.size());
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_EQ(dest.ValueAt(i), t.ValueAt(rids[i], c)) << "column " << c;
      EXPECT_EQ(dest.ValueAt(i).type(), t.schema().column(c).type);
    }
  }
}

TEST(ColumnVectorTest, GatherAppendsAfterExistingEntries) {
  ColumnVector source(DataType::kInt64);
  for (int64_t v : {7, 8, 9}) source.AppendInt64(v);
  ColumnVector dest(DataType::kInt64);
  dest.AppendInt64(-1);
  dest.AppendGather(source, {2, 0});
  ASSERT_EQ(dest.size(), 3u);
  EXPECT_EQ(dest.Int64At(0), -1);
  EXPECT_EQ(dest.Int64At(1), 9);
  EXPECT_EQ(dest.Int64At(2), 7);
}

TEST(ColumnVectorTest, GatherOfNoRidsAppendsNothing) {
  ColumnVector source(DataType::kString);
  source.AppendString("x");
  ColumnVector dest(DataType::kString);
  dest.AppendGather(source, {});
  EXPECT_EQ(dest.size(), 0u);
}

TEST(TableTest, ColumnWiseGatherProjectsAndCountsRows) {
  Table source("src", TestSchema());
  for (int64_t i = 0; i < 4; ++i) {
    source.AppendRow({Value::Int64(i), Value::Double(i * 1.5),
                      Value::String(std::string(1, 'a' + i)), Value::Date(i)});
  }
  // Destination columns (ship, name, id) take source columns 3, 2, 0.
  Table dest("dest", Schema({{"ship", DataType::kDate},
                             {"name", DataType::kString},
                             {"id", DataType::kInt64}}));
  dest.AppendGather(source, {3, 1, 3}, {3, 2, 0});
  ASSERT_EQ(dest.num_rows(), 3u);
  EXPECT_EQ(dest.RowAt(0), (std::vector<Value>{Value::Date(3),
                                               Value::String("d"),
                                               Value::Int64(3)}));
  EXPECT_EQ(dest.column(1).StringAt(1), "b");
  EXPECT_EQ(dest.column(2).Int64At(2), 3);
  dest.AppendGather(source, {}, {3, 2, 0});
  EXPECT_EQ(dest.num_rows(), 3u);
  dest.AppendGather(source, {0}, {3, 2, 0});
  EXPECT_EQ(dest.num_rows(), 4u);
  EXPECT_EQ(dest.column(0).size(), 4u);
}

}  // namespace
}  // namespace storage
}  // namespace robustqo
