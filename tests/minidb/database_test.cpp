#include "minidb/database.h"

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/tempdir.h"

namespace perftrack::minidb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(Database::openMemory()) {
    db_->createTable("users",
                     {{"id", ColumnType::Integer},
                      {"name", ColumnType::Text},
                      {"score", ColumnType::Real}},
                     /*primary_key=*/0);
  }

  const TableDef& users() const { return *db_->catalog().findTable("users"); }

  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, InsertAutoAssignsPrimaryKey) {
  const auto id1 = db_->insertRow("users", {Value::null(), Value("ada"), Value(1.0)});
  const auto id2 = db_->insertRow("users", {Value::null(), Value("bob"), Value(2.0)});
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
}

TEST_F(DatabaseTest, ExplicitPrimaryKeyRespected) {
  const auto id = db_->insertRow("users", {Value(100), Value("carol"), Value(3.0)});
  EXPECT_EQ(id, 100);
  // Auto-assignment continues above the explicit value.
  const auto next = db_->insertRow("users", {Value::null(), Value("dan"), Value(4.0)});
  EXPECT_EQ(next, 101);
}

TEST_F(DatabaseTest, DuplicatePrimaryKeyRejected) {
  db_->insertRow("users", {Value(1), Value("ada"), Value(1.0)});
  EXPECT_THROW(db_->insertRow("users", {Value(1), Value("imposter"), Value(0.0)}),
               util::StorageError);
}

TEST_F(DatabaseTest, WrongColumnCountRejected) {
  EXPECT_THROW(db_->insertRow("users", {Value(1), Value("ada")}), util::StorageError);
}

TEST_F(DatabaseTest, UnknownTableThrows) {
  EXPECT_THROW(db_->insertRow("nope", {Value(1)}), util::StorageError);
  EXPECT_THROW(db_->dropTable("nope"), util::StorageError);
}

TEST_F(DatabaseTest, ScanVisitsAllRows) {
  for (int i = 0; i < 10; ++i) {
    db_->insertRow("users", {Value::null(), Value("u" + std::to_string(i)), Value(0.5 * i)});
  }
  int count = 0;
  db_->scan("users", [&](RecordId, const Row& row) {
    EXPECT_EQ(row.size(), 3u);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 10);
}

TEST_F(DatabaseTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    db_->insertRow("users", {Value::null(), Value("u"), Value(0.0)});
  }
  int count = 0;
  db_->scan("users", [&](RecordId, const Row&) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST_F(DatabaseTest, SecondaryIndexEqualScan) {
  db_->createIndex("users_by_name", "users", {"name"});
  for (int i = 0; i < 30; ++i) {
    db_->insertRow("users",
                   {Value::null(), Value("name" + std::to_string(i % 3)), Value(1.0 * i)});
  }
  const IndexDef* index = db_->catalog().findIndex("users_by_name");
  ASSERT_NE(index, nullptr);
  int hits = 0;
  db_->indexScanEqual(*index, {Value("name1")}, [&](RecordId, const Row& row) {
    EXPECT_EQ(row.at(1).asText(), "name1");
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 10);
}

TEST_F(DatabaseTest, IndexBackfillCoversExistingRows) {
  for (int i = 0; i < 20; ++i) {
    db_->insertRow("users", {Value::null(), Value("pre" + std::to_string(i % 2)), Value(0.0)});
  }
  db_->createIndex("late_index", "users", {"name"});
  const IndexDef* index = db_->catalog().findIndex("late_index");
  int hits = 0;
  db_->indexScanEqual(*index, {Value("pre0")}, [&](RecordId, const Row&) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 10);
}

TEST_F(DatabaseTest, UniqueIndexRejectsDuplicates) {
  db_->createIndex("uniq_name", "users", {"name"}, /*unique=*/true);
  db_->insertRow("users", {Value::null(), Value("only"), Value(1.0)});
  EXPECT_THROW(db_->insertRow("users", {Value::null(), Value("only"), Value(2.0)}),
               util::StorageError);
}

TEST_F(DatabaseTest, UniqueBackfillDetectsExistingDuplicates) {
  db_->insertRow("users", {Value::null(), Value("dup"), Value(1.0)});
  db_->insertRow("users", {Value::null(), Value("dup"), Value(2.0)});
  EXPECT_THROW(db_->createIndex("uniq_fail", "users", {"name"}, true), util::StorageError);
  // Failed creation must not leave the index behind.
  EXPECT_EQ(db_->catalog().findIndex("uniq_fail"), nullptr);
}

TEST_F(DatabaseTest, IndexRangeScan) {
  db_->createIndex("users_by_score", "users", {"score"});
  for (int i = 0; i < 20; ++i) {
    db_->insertRow("users", {Value::null(), Value("u"), Value(static_cast<double>(i))});
  }
  const IndexDef* index = db_->catalog().findIndex("users_by_score");
  std::vector<double> seen;
  db_->indexScanRange(*index, Value(5.0), true, Value(8.0), false,
                      [&](RecordId, const Row& row) {
                        seen.push_back(row.at(2).asReal());
                        return true;
                      });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 5.0);
  EXPECT_DOUBLE_EQ(seen[2], 7.0);
}

TEST_F(DatabaseTest, EraseRowMaintainsIndexes) {
  db_->createIndex("users_by_name", "users", {"name"});
  const auto id = db_->insertRow("users", {Value::null(), Value("victim"), Value(0.0)});
  (void)id;
  RecordId rid;
  db_->scan("users", [&](RecordId r, const Row&) {
    rid = r;
    return false;
  });
  EXPECT_TRUE(db_->eraseRow(users(), rid));
  const IndexDef* index = db_->catalog().findIndex("users_by_name");
  int hits = 0;
  db_->indexScanEqual(*index, {Value("victim")}, [&](RecordId, const Row&) {
    ++hits;
    return true;
  });
  EXPECT_EQ(hits, 0);
  EXPECT_FALSE(db_->eraseRow(users(), rid));
}

TEST_F(DatabaseTest, UpdateRowMaintainsIndexes) {
  db_->createIndex("users_by_name", "users", {"name"});
  db_->insertRow("users", {Value::null(), Value("before"), Value(0.0)});
  RecordId rid;
  Row row;
  db_->scan("users", [&](RecordId r, const Row& rw) {
    rid = r;
    row = rw;
    return false;
  });
  row[1] = Value("after");
  db_->updateRow(users(), rid, row);
  const IndexDef* index = db_->catalog().findIndex("users_by_name");
  int before_hits = 0;
  int after_hits = 0;
  db_->indexScanEqual(*index, {Value("before")}, [&](RecordId, const Row&) {
    ++before_hits;
    return true;
  });
  db_->indexScanEqual(*index, {Value("after")}, [&](RecordId, const Row&) {
    ++after_hits;
    return true;
  });
  EXPECT_EQ(before_hits, 0);
  EXPECT_EQ(after_hits, 1);
}

TEST_F(DatabaseTest, DropTableRemovesIndexesToo) {
  db_->createIndex("users_by_name", "users", {"name"});
  db_->dropTable("users");
  EXPECT_EQ(db_->catalog().findTable("users"), nullptr);
  EXPECT_EQ(db_->catalog().findIndex("users_by_name"), nullptr);
}

TEST_F(DatabaseTest, NonIntegerPrimaryKeyRejected) {
  EXPECT_THROW(
      db_->createTable("bad", {{"name", ColumnType::Text}}, /*primary_key=*/0),
      util::StorageError);
}

TEST(DatabasePersistence, SchemaAndRowsSurviveReopen) {
  util::TempDir dir;
  const std::string path = dir.file("persist.db").string();
  {
    auto db = Database::open(path);
    db->createTable("t", {{"id", ColumnType::Integer}, {"v", ColumnType::Text}}, 0);
    db->createIndex("t_by_v", "t", {"v"});
    for (int i = 0; i < 100; ++i) {
      db->insertRow("t", {Value::null(), Value("val" + std::to_string(i % 5))});
    }
    db->flush();
  }
  {
    auto db = Database::open(path);
    const TableDef* t = db->catalog().findTable("t");
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->columns.size(), 2u);
    const IndexDef* idx = db->catalog().findIndex("t_by_v");
    ASSERT_NE(idx, nullptr);
    int hits = 0;
    db->indexScanEqual(*idx, {Value("val3")}, [&](RecordId, const Row&) {
      ++hits;
      return true;
    });
    EXPECT_EQ(hits, 20);
    // Auto-increment resumes past persisted ids.
    const auto id = db->insertRow("t", {Value::null(), Value("new")});
    EXPECT_EQ(id, 101);
  }
}

}  // namespace
}  // namespace perftrack::minidb
