// Inverted-index core: posting-list round trips, cursor seeks, k-way
// intersection, the bitmap accumulator, the manager's build/invalidate
// lifecycle, and the SQL planner's posting access path.
#include "minidb/invidx/manager.h"
#include "minidb/invidx/posting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "util/rng.h"

namespace perftrack::minidb::invidx {
namespace {

std::vector<std::uint64_t> randomSorted(util::Rng& rng, std::size_t n,
                                        std::uint64_t hi) {
  std::set<std::uint64_t> s;
  while (s.size() < n) {
    s.insert(static_cast<std::uint64_t>(rng.uniformInt(0, static_cast<std::int64_t>(hi))));
  }
  return {s.begin(), s.end()};
}

TEST(PostingList, SparseRoundTripUsesDeltas) {
  util::Rng rng(1);
  const auto ids = randomSorted(rng, 500, 1'000'000);  // range/size ~2000
  const PostingList pl = PostingList::fromSorted(ids);
  EXPECT_FALSE(pl.isBitmap());
  EXPECT_EQ(pl.size(), ids.size());
  EXPECT_EQ(pl.minId(), ids.front());
  EXPECT_EQ(pl.maxId(), ids.back());
  EXPECT_EQ(pl.toVector(), ids);
}

TEST(PostingList, DenseRoundTripUsesBitmap) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 100; i < 2100; i += 2) ids.push_back(i);
  const PostingList pl = PostingList::fromSorted(ids);
  EXPECT_TRUE(pl.isBitmap());
  EXPECT_EQ(pl.toVector(), ids);
}

TEST(PostingList, EmptyAndSingleton) {
  const PostingList empty = PostingList::fromSorted({});
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.cursor().valid());
  const PostingList one = PostingList::fromSorted({42});
  EXPECT_EQ(one.size(), 1u);
  auto c = one.cursor();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.value(), 42u);
  c.next();
  EXPECT_FALSE(c.valid());
}

TEST(PostingList, CursorAdvanceToMatchesLowerBound) {
  util::Rng rng(2);
  for (const bool dense : {false, true}) {
    const auto ids = dense ? randomSorted(rng, 2000, 8000)
                           : randomSorted(rng, 700, 900'000);
    const PostingList pl = PostingList::fromSorted(ids);
    ASSERT_EQ(pl.isBitmap(), dense);
    for (int trial = 0; trial < 300; ++trial) {
      const auto target = static_cast<std::uint64_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(ids.back() + 10)));
      auto c = pl.cursor();
      const bool ok = c.advanceTo(target);
      const auto it = std::lower_bound(ids.begin(), ids.end(), target);
      if (it == ids.end()) {
        EXPECT_FALSE(ok);
      } else {
        ASSERT_TRUE(ok);
        EXPECT_EQ(c.value(), *it);
      }
    }
  }
}

TEST(PostingList, CursorAdvanceToIsMonotonic) {
  util::Rng rng(3);
  const auto ids = randomSorted(rng, 600, 500'000);
  const PostingList pl = PostingList::fromSorted(ids);
  auto c = pl.cursor();
  std::vector<std::uint64_t> targets;
  for (int i = 0; i < 50; ++i) {
    targets.push_back(static_cast<std::uint64_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(ids.back()))));
  }
  std::sort(targets.begin(), targets.end());
  for (const std::uint64_t t : targets) {
    if (!c.advanceTo(t)) break;
    const auto it = std::lower_bound(ids.begin(), ids.end(), t);
    ASSERT_NE(it, ids.end());
    EXPECT_EQ(c.value(), *it);
  }
}

TEST(PostingList, IntersectMatchesSetIntersection) {
  util::Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    // Mix of sparse (delta) and dense (bitmap) lists over one domain.
    const auto a = randomSorted(rng, 400, 20'000);
    const auto b = randomSorted(rng, 3000, 20'000);
    const auto c = randomSorted(rng, 1200, 20'000);
    const PostingList pa = PostingList::fromSorted(a);
    const PostingList pb = PostingList::fromSorted(b);
    const PostingList pc = PostingList::fromSorted(c);
    std::vector<std::uint64_t> ab;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(ab));
    std::vector<std::uint64_t> expected;
    std::set_intersection(ab.begin(), ab.end(), c.begin(), c.end(),
                          std::back_inserter(expected));
    EXPECT_EQ(PostingList::intersect({&pa, &pb, &pc}), expected);
  }
}

TEST(PostingList, IntersectEmptyListShortCircuits) {
  const PostingList a = PostingList::fromSorted({1, 2, 3});
  const PostingList none = PostingList::fromSorted({});
  EXPECT_TRUE(PostingList::intersect({&a, &none}).empty());
}

TEST(PostingList, IntersectLimitReturnsPrefix) {
  util::Rng rng(5);
  const auto a = randomSorted(rng, 2000, 10'000);
  const auto b = randomSorted(rng, 2000, 10'000);
  const PostingList pa = PostingList::fromSorted(a);
  const PostingList pb = PostingList::fromSorted(b);
  const auto full = PostingList::intersect({&pa, &pb});
  ASSERT_GT(full.size(), 10u);
  const auto limited = PostingList::intersect({&pa, &pb}, 10);
  EXPECT_EQ(limited, std::vector<std::uint64_t>(full.begin(), full.begin() + 10));
}

TEST(Bitmap, UnionIntersectCountMatchReference) {
  util::Rng rng(6);
  const auto a = randomSorted(rng, 900, 30'000);
  const auto b = randomSorted(rng, 5000, 30'000);  // dense -> bitmap rep
  const PostingList pa = PostingList::fromSorted(a);
  const PostingList pb = PostingList::fromSorted(b);

  Bitmap ba(0, 30'000), bb(0, 30'000);
  ba.orPosting(pa);
  bb.orPosting(pb);
  EXPECT_EQ(ba.count(), a.size());
  EXPECT_EQ(ba.toVector(), a);

  ba.andWith(bb);
  std::vector<std::uint64_t> expected;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected));
  EXPECT_EQ(ba.toVector(), expected);
  EXPECT_EQ(ba.count(), expected.size());
  EXPECT_EQ(ba.any(), !expected.empty());

  // forEach early stop.
  std::size_t seen = 0;
  ba.forEach([&](std::uint64_t) { return ++seen < 3; });
  EXPECT_EQ(seen, std::min<std::size_t>(3, expected.size()));
  EXPECT_EQ(ba.toVector(5).size(), std::min<std::size_t>(5, expected.size()));
}

// ---------------------------------------------------------------------------
// Manager lifecycle against a live database
// ---------------------------------------------------------------------------

class InvidxManagerTest : public ::testing::Test {
 protected:
  InvidxManagerTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE pairs (k INTEGER, v INTEGER)");
    sql_.exec("CREATE INDEX pairs_by_k ON pairs (k)");
    sql_.exec("INSERT INTO pairs (k, v) VALUES (1, 10), (1, 11), (2, 20), (3, 30), (3, 31)");
  }

  std::unique_ptr<Database> db_;
  sql::Engine sql_;
};

TEST_F(InvidxManagerTest, ValueIndexGroupsByKey) {
  const auto idx = db_->invidx().valueIndex("pairs", "k", "v");
  ASSERT_TRUE(idx);
  ASSERT_NE(idx->find(1), nullptr);
  EXPECT_EQ(idx->find(1)->toVector(), (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(idx->find(2)->toVector(), (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(idx->find(9), nullptr);
  EXPECT_EQ(idx->valueLo(), 10u);
  EXPECT_EQ(idx->valueHi(), 31u);
}

TEST_F(InvidxManagerTest, CachedUntilDmlThenRebuilt) {
  const auto before = db_->invidx().valueIndex("pairs", "k", "v");
  ASSERT_TRUE(before);
  EXPECT_EQ(db_->invidx().valueIndex("pairs", "k", "v").get(), before.get());

  sql_.exec("INSERT INTO pairs (k, v) VALUES (2, 21)");
  const auto after = db_->invidx().valueIndex("pairs", "k", "v");
  ASSERT_TRUE(after);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->find(2)->toVector(), (std::vector<std::uint64_t>{20, 21}));
  // The old snapshot is untouched (readers that held it stay consistent).
  EXPECT_EQ(before->find(2)->toVector(), (std::vector<std::uint64_t>{20}));
}

TEST_F(InvidxManagerTest, RollbackInvalidatesViaEpoch) {
  sql_.exec("BEGIN");
  sql_.exec("INSERT INTO pairs (k, v) VALUES (7, 70)");
  const auto mid = db_->invidx().valueIndex("pairs", "k", "v");
  ASSERT_TRUE(mid);
  ASSERT_NE(mid->find(7), nullptr);  // working state is visible
  sql_.exec("ROLLBACK");
  const auto after = db_->invidx().valueIndex("pairs", "k", "v");
  ASSERT_TRUE(after);
  EXPECT_EQ(after->find(7), nullptr);
}

TEST_F(InvidxManagerTest, DeclinesNonIntegerColumns) {
  sql_.exec("CREATE TABLE named (id INTEGER, label TEXT)");
  sql_.exec("INSERT INTO named (id, label) VALUES (1, 'a')");
  EXPECT_FALSE(db_->invidx().valueIndex("named", "id", "label"));
  EXPECT_FALSE(db_->invidx().valueIndex("named", "label", "id"));
  EXPECT_FALSE(db_->invidx().valueIndex("no_such_table", "a", "b"));
}

TEST_F(InvidxManagerTest, RidIndexCoversEveryRow) {
  const auto idx = db_->invidx().ridIndex("pairs", 0);  // column k
  ASSERT_TRUE(idx);
  ASSERT_NE(idx->find(1), nullptr);
  EXPECT_EQ(idx->find(1)->size(), 2u);
  EXPECT_EQ(idx->find(2)->size(), 1u);
  EXPECT_EQ(idx->find(3)->size(), 2u);
  EXPECT_EQ(idx->find(4), nullptr);
  EXPECT_EQ(idx->rows(), 5u);
}

// ---------------------------------------------------------------------------
// Planner: the PostingInList access path
// ---------------------------------------------------------------------------

std::string planText(const sql::ResultSet& rs) {
  std::string text;
  for (const auto& row : rs.rows) {
    text += row[0].asText();
    text += '\n';
  }
  return text;
}

class PostingPathTest : public ::testing::Test {
 protected:
  PostingPathTest() : db_(Database::openMemory()), sql_(*db_) {
    sql_.exec("CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT)");
    sql_.exec("CREATE INDEX items_by_grp ON items (grp)");
    for (int i = 1; i <= 50; ++i) {
      sql_.exec("INSERT INTO items (grp, name) VALUES (" + std::to_string(i % 7) +
                ", 'n" + std::to_string(i) + "')");
    }
  }

  std::unique_ptr<Database> db_;
  sql::Engine sql_;
};

TEST_F(PostingPathTest, ExplainShowsPostingIndexWhenEnabled) {
  sql_.setOption("invidx", true);
  const auto plan = planText(sql_.exec("EXPLAIN SELECT id FROM items WHERE grp IN (1, 2)"));
  EXPECT_NE(plan.find("USING POSTING INDEX"), std::string::npos) << plan;

  sql_.setOption("invidx", false);
  const auto legacy = planText(sql_.exec("EXPLAIN SELECT id FROM items WHERE grp IN (1, 2)"));
  EXPECT_EQ(legacy.find("USING POSTING INDEX"), std::string::npos) << legacy;
  EXPECT_NE(legacy.find("multi-point probe"), std::string::npos) << legacy;
}

TEST_F(PostingPathTest, ExplainAnalyzeShowsPostingStats) {
  sql_.setOption("invidx", true);
  const auto plan =
      planText(sql_.exec("EXPLAIN ANALYZE SELECT id FROM items WHERE grp IN (1, 2)"));
  EXPECT_NE(plan.find("postings:"), std::string::npos) << plan;
}

TEST_F(PostingPathTest, ResultsIdenticalToLegacyPath) {
  const char* queries[] = {
      "SELECT id, grp, name FROM items WHERE grp IN (1, 3, 5) ORDER BY id",
      "SELECT id FROM items WHERE grp IN (2, 2, 2)",        // duplicate keys
      "SELECT id FROM items WHERE grp IN (99, 100)",        // no matches
      "SELECT id FROM items WHERE id IN (5, 1, 50, 12)",    // PK probes
      "SELECT COUNT(*) FROM items WHERE grp IN (0, 6)",
  };
  for (const char* q : queries) {
    sql_.setOption("invidx", false);
    const auto legacy = sql_.exec(q);
    sql_.setOption("invidx", true);
    const auto fast = sql_.exec(q);
    ASSERT_EQ(fast.rows.size(), legacy.rows.size()) << q;
    for (std::size_t r = 0; r < fast.rows.size(); ++r) {
      ASSERT_EQ(fast.rows[r].size(), legacy.rows[r].size());
      for (std::size_t c = 0; c < fast.rows[r].size(); ++c) {
        EXPECT_EQ(fast.rows[r][c].compare(legacy.rows[r][c]), 0) << q;
      }
    }
  }
}

TEST_F(PostingPathTest, DmlBetweenQueriesSeesFreshRows) {
  sql_.setOption("invidx", true);
  const auto before = sql_.exec("SELECT id FROM items WHERE grp IN (1)");
  sql_.exec("INSERT INTO items (grp, name) VALUES (1, 'fresh')");
  const auto after = sql_.exec("SELECT id FROM items WHERE grp IN (1)");
  EXPECT_EQ(after.rows.size(), before.rows.size() + 1);
  sql_.exec("DELETE FROM items WHERE grp = 1");
  const auto gone = sql_.exec("SELECT id FROM items WHERE grp IN (1)");
  EXPECT_TRUE(gone.rows.empty());
}

TEST_F(PostingPathTest, MixedTypeKeysFallBackToBtree) {
  sql_.setOption("invidx", true);
  // 'n5' is not an integer: the iterator declines the posting index at
  // doOpen and probes the B-tree per key instead; results stay correct.
  const auto rs = sql_.exec("SELECT id FROM items WHERE grp IN (1, 'x')");
  sql_.setOption("invidx", false);
  const auto legacy = sql_.exec("SELECT id FROM items WHERE grp IN (1, 'x')");
  EXPECT_EQ(rs.rows.size(), legacy.rows.size());
}

TEST_F(PostingPathTest, ProbeCounterAdvances) {
  sql_.setOption("invidx", true);
  const std::uint64_t before = counters().probes.value();
  (void)sql_.exec("SELECT id FROM items WHERE grp IN (1, 2, 3)");
  EXPECT_GE(counters().probes.value(), before + 3);
}

}  // namespace
}  // namespace perftrack::minidb::invidx
