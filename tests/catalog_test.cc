#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "storage/disk.h"

namespace streamrel::catalog {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : disk_(std::make_shared<storage::SimulatedDisk>()) {}

  TableInfo MakeTable(const std::string& name) {
    TableInfo info;
    info.name = name;
    info.schema = Schema({Column("a", DataType::kInt64)});
    info.heap = std::make_shared<storage::HeapTable>(info.schema, disk_);
    return info;
  }

  StreamInfo MakeStream(const std::string& name) {
    StreamInfo info;
    info.name = name;
    info.schema = Schema({Column("ts", DataType::kTimestamp)});
    info.cqtime_column = 0;
    return info;
  }

  std::shared_ptr<storage::SimulatedDisk> disk_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateAndGetTable) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  EXPECT_NE(catalog_.GetTable("t"), nullptr);
  EXPECT_NE(catalog_.GetTable("T"), nullptr);  // case-insensitive
  EXPECT_EQ(catalog_.GetTable("u"), nullptr);
}

TEST_F(CatalogTest, SharedNamespaceAcrossKinds) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("x")).ok());
  EXPECT_FALSE(catalog_.CreateStream(MakeStream("x")).ok());
  ViewInfo view;
  view.name = "X";
  EXPECT_FALSE(catalog_.CreateView(std::move(view)).ok());
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  Status s = catalog_.CreateTable(MakeTable("T"));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, StreamLifecycle) {
  ASSERT_TRUE(catalog_.CreateStream(MakeStream("s")).ok());
  ASSERT_NE(catalog_.GetStream("s"), nullptr);
  EXPECT_FALSE(catalog_.GetStream("s")->is_derived);
  ASSERT_TRUE(catalog_.DropStream("s").ok());
  EXPECT_EQ(catalog_.GetStream("s"), nullptr);
  EXPECT_EQ(catalog_.DropStream("s").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, ChannelsHaveOwnNamespace) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  ChannelInfo ch;
  ch.name = "t";  // same name as the table: allowed
  ch.from_stream = "s";
  ch.into_table = "t";
  EXPECT_TRUE(catalog_.CreateChannel(std::move(ch)).ok());
  EXPECT_NE(catalog_.GetChannel("t"), nullptr);
}

TEST_F(CatalogTest, IndexAttachAndFind) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  auto index = std::make_shared<storage::BTreeIndex>("a", 0);
  ASSERT_TRUE(catalog_.CreateIndex("idx_a", "t", index).ok());
  TableInfo* t = catalog_.GetTable("t");
  EXPECT_EQ(t->FindIndexOn("a"), index.get());
  EXPECT_EQ(t->FindIndexOn("A"), index.get());
  EXPECT_EQ(t->FindIndexOn("b"), nullptr);
}

TEST_F(CatalogTest, IndexOnMissingTableFails) {
  auto index = std::make_shared<storage::BTreeIndex>("a", 0);
  EXPECT_EQ(catalog_.CreateIndex("idx", "none", index).code(),
            StatusCode::kNotFound);
}

TEST_F(CatalogTest, DuplicateIndexNameFails) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  ASSERT_TRUE(catalog_
                  .CreateIndex("idx", "t",
                               std::make_shared<storage::BTreeIndex>("a", 0))
                  .ok());
  EXPECT_EQ(catalog_
                .CreateIndex("idx", "t",
                             std::make_shared<storage::BTreeIndex>("a", 0))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, DropIndexDetaches) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  ASSERT_TRUE(catalog_
                  .CreateIndex("idx", "t",
                               std::make_shared<storage::BTreeIndex>("a", 0))
                  .ok());
  ASSERT_TRUE(catalog_.DropIndex("idx").ok());
  EXPECT_EQ(catalog_.GetTable("t")->FindIndexOn("a"), nullptr);
}

TEST_F(CatalogTest, DropTableDropsItsIndexRegistrations) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  ASSERT_TRUE(catalog_
                  .CreateIndex("idx", "t",
                               std::make_shared<storage::BTreeIndex>("a", 0))
                  .ok());
  ASSERT_TRUE(catalog_.DropTable("t").ok());
  // The index name is free again.
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t")).ok());
  EXPECT_TRUE(catalog_
                  .CreateIndex("idx", "t",
                               std::make_shared<storage::BTreeIndex>("a", 0))
                  .ok());
}

TEST_F(CatalogTest, NameListings) {
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t1")).ok());
  ASSERT_TRUE(catalog_.CreateTable(MakeTable("t2")).ok());
  ASSERT_TRUE(catalog_.CreateStream(MakeStream("s1")).ok());
  EXPECT_EQ(catalog_.TableNames().size(), 2u);
  EXPECT_EQ(catalog_.StreamNames().size(), 1u);
}

}  // namespace
}  // namespace streamrel::catalog
