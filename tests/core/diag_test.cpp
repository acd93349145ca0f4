// core::diag — the comparison-based diagnosis engine (DESIGN.md §5.10):
// $EXEC canonicalization, context alignment, divergence thresholds, ranked
// contributions, top-K, and the edge cases the gate depends on (zero shared
// contexts, one-sided metrics, zero baselines).
#include "core/diag.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "core/datastore.h"
#include "dbal/connection.h"
#include "util/error.h"

namespace perftrack::core::diag {
namespace {

class DiagTest : public ::testing::Test {
 protected:
  DiagTest() : conn_(dbal::Connection::open(":memory:")), store_(*conn_) {
    store_.initialize();
  }

  /// One scalar result for `exec` in a single-resource primary context.
  void addResult(const std::string& exec, const std::string& resource,
                 const std::string& metric, double value) {
    store_.addPerformanceResult(exec, {{{resource}, FocusType::Primary}},
                                "tool", metric, value);
  }

  Report diff(const std::string& a, const std::string& b,
              std::uint32_t top_k = 0, double ratio = 0.10, double abs = 0.0) {
    Request request;
    request.exec_a = a;
    request.exec_b = b;
    request.top_k = top_k;
    request.ratio_threshold = ratio;
    request.abs_threshold = abs;
    return conn_->diff(request);
  }

  std::unique_ptr<dbal::Connection> conn_;
  PTDataStore store_;
};

TEST(CanonicalResourceNameTest, ReplacesExecutionInLeadingSegment) {
  EXPECT_EQ(canonicalResourceName("irs-np8", "/irs-np8/p0"), "/$EXEC/p0");
  EXPECT_EQ(canonicalResourceName("irs-np8", "/build-irs-np8/m.c"),
            "/build-$EXEC/m.c");
  EXPECT_EQ(canonicalResourceName("irs-np8", "/irs-np8"), "/$EXEC");
}

TEST(CanonicalResourceNameTest, LeavesUnrelatedNamesAlone) {
  EXPECT_EQ(canonicalResourceName("irs-np8", "/frost/batch/n1"),
            "/frost/batch/n1");
  // Only the leading segment canonicalizes: deeper matches stay verbatim.
  EXPECT_EQ(canonicalResourceName("irs-np8", "/frost/irs-np8"),
            "/frost/irs-np8");
  EXPECT_EQ(canonicalResourceName("", "/frost"), "/frost");
  EXPECT_EQ(canonicalResourceName("x", "/"), "/");
}

TEST_F(DiagTest, AlignsAcrossPerExecutionResourceNames) {
  for (const char* exec : {"runA", "runB"}) {
    store_.addExecution(exec, "app");
    const std::string root = std::string("/") + exec;
    store_.addResource(root + "/p0", "execution/process");
    addResult(exec, root + "/p0", "wall_ms",
              exec == std::string("runA") ? 100.0 : 250.0);
  }
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.results_a, 1u);
  EXPECT_EQ(report.stats.results_b, 1u);
  EXPECT_EQ(report.stats.aligned, 1u);
  EXPECT_EQ(report.stats.only_a, 0u);
  EXPECT_EQ(report.stats.only_b, 0u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].metric, "wall_ms");
  EXPECT_EQ(report.rows[0].context, "/$EXEC/p0");
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 2.5);
  EXPECT_DOUBLE_EQ(report.rows[0].contribution_pct, 100.0);
}

TEST_F(DiagTest, ZeroSharedContextsAlignsNothing) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/machX", "grid/machine");
  store_.addResource("/machY", "grid/machine");
  addResult("runA", "/machX", "wall_ms", 10.0);
  addResult("runB", "/machY", "wall_ms", 20.0);
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.aligned, 0u);
  EXPECT_EQ(report.stats.only_a, 1u);
  EXPECT_EQ(report.stats.only_b, 1u);
  EXPECT_EQ(report.stats.divergent, 0u);
  EXPECT_TRUE(report.rows.empty());
  EXPECT_NE(report.toText().find("ranked explanations: (none)"),
            std::string::npos);
}

TEST_F(DiagTest, MetricOnOneSideOnlyCountsAsUnmatched) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 10.0);
  addResult("runA", "/mach", "cache_misses", 500.0);  // A only
  addResult("runB", "/mach", "wall_ms", 10.0);
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.aligned, 1u);
  EXPECT_EQ(report.stats.only_a, 1u);
  EXPECT_EQ(report.stats.only_b, 0u);
  EXPECT_EQ(report.stats.divergent, 0u);  // the matched pair is unchanged
}

TEST_F(DiagTest, ZeroBaselineDivergesWithoutRatio) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "page_faults", 0.0);
  addResult("runB", "/mach", "page_faults", 40.0);
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.zero_baseline, 1u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.rows[0].has_ratio);
  EXPECT_NE(report.toText().find("zero baseline"), std::string::npos);

  // Both sides zero: no change, not divergent.
  addResult("runA", "/mach", "swaps", 0.0);
  addResult("runB", "/mach", "swaps", 0.0);
  const Report again = diff("runA", "runB");
  EXPECT_EQ(again.stats.zero_baseline, 2u);
  EXPECT_EQ(again.stats.divergent, 1u);  // still just page_faults
}

TEST_F(DiagTest, ThresholdsGateDivergence) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 100.0);
  addResult("runB", "/mach", "wall_ms", 108.0);  // +8%
  EXPECT_TRUE(diff("runA", "runB", 0, 0.10).rows.empty());
  EXPECT_EQ(diff("runA", "runB", 0, 0.05).rows.size(), 1u);
  // The absolute floor cuts the same pair (|delta| = 8).
  EXPECT_TRUE(diff("runA", "runB", 0, 0.05, 10.0).rows.empty());
}

TEST_F(DiagTest, RanksByContributionAndAppliesTopK) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  for (const char* r : {"/m0", "/m1", "/m2"}) {
    store_.addResource(r, "grid/machine");
  }
  addResult("runA", "/m0", "wall_ms", 10.0);
  addResult("runB", "/m0", "wall_ms", 70.0);  // delta 60
  addResult("runA", "/m1", "wall_ms", 10.0);
  addResult("runB", "/m1", "wall_ms", 40.0);  // delta 30
  addResult("runA", "/m2", "wall_ms", 10.0);
  addResult("runB", "/m2", "wall_ms", 20.0);  // delta 10

  const Report full = diff("runA", "runB");
  ASSERT_EQ(full.rows.size(), 3u);
  EXPECT_EQ(full.rows[0].context, "/m0");
  EXPECT_EQ(full.rows[1].context, "/m1");
  EXPECT_EQ(full.rows[2].context, "/m2");
  EXPECT_DOUBLE_EQ(full.rows[0].contribution_pct, 60.0);
  EXPECT_DOUBLE_EQ(full.rows[1].contribution_pct, 30.0);
  EXPECT_DOUBLE_EQ(full.rows[2].contribution_pct, 10.0);

  const Report top = diff("runA", "runB", 2);
  EXPECT_EQ(top.rows.size(), 2u);
  EXPECT_EQ(top.stats.divergent, 3u);  // stats count every divergence
  EXPECT_NE(top.toText().find("(top 2 of 3)"), std::string::npos);
}

TEST_F(DiagTest, ToRowsMatchesColumns) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 10.0);
  addResult("runB", "/mach", "wall_ms", 30.0);
  const Report report = diff("runA", "runB");
  const auto rows = report.toRows();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), Report::columns().size());
  EXPECT_EQ(rows[0][0].asInt(), 1);             // rank
  EXPECT_EQ(rows[0][1].asText(), "wall_ms");    // metric
  EXPECT_DOUBLE_EQ(rows[0][5].asReal(), 20.0);  // delta
  EXPECT_DOUBLE_EQ(rows[0][6].asReal(), 3.0);   // ratio
}

TEST_F(DiagTest, UnknownExecutionThrowsModelError) {
  store_.addExecution("runA", "app");
  EXPECT_THROW(diff("runA", "nope"), util::ModelError);
  EXPECT_THROW(diff("nope", "runA"), util::ModelError);
}

TEST_F(DiagTest, RejectsNonFiniteAndNegativeThresholds) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 10.0);
  addResult("runB", "/mach", "wall_ms", 30.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf, -0.5}) {
    EXPECT_THROW(diff("runA", "runB", 0, bad), util::ModelError) << bad;
    EXPECT_THROW(diff("runA", "runB", 0, 0.10, bad), util::ModelError) << bad;
  }
  try {
    diff("runA", "runB", 0, nan);
    FAIL() << "NaN ratio threshold accepted";
  } catch (const util::ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("ratio threshold must be finite"),
              std::string::npos)
        << e.what();
  }
  // The boundary values stay legal: 0 keeps every changed pair.
  EXPECT_EQ(diff("runA", "runB", 0, 0.0, 0.0).rows.size(), 1u);
  EXPECT_EQ(diff("runA", "runB", 0xffffffffu).rows.size(), 1u);
}

TEST_F(DiagTest, DuplicateSamplesKeepTheLowestResultId) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 10.0);
  addResult("runA", "/mach", "wall_ms", 99.0);  // later sample: ignored
  addResult("runB", "/mach", "wall_ms", 20.0);
  addResult("runB", "/mach", "wall_ms", 10.0);
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.results_a, 2u);
  EXPECT_EQ(report.stats.aligned, 1u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].value_a, 10.0);
  EXPECT_EQ(report.rows[0].value_b, 20.0);
}

TEST_F(DiagTest, ResultsWithoutFociOrMetricAlignAsBefore) {
  store_.addExecution("runA", "app");
  store_.addExecution("runB", "app");
  const std::int64_t metric = store_.addMetric("wall_ms");
  auto insertBare = [&](const char* exec, std::int64_t metric_id, double value) {
    const std::int64_t exec_id = conn_->queryInt(
        "SELECT id FROM execution WHERE name = ?", {minidb::Value(exec)});
    conn_->execPrepared(
        "INSERT INTO performance_result (execution_id, metric_id, "
        "performance_tool_id, value) VALUES (?, ?, 1, ?)",
        {minidb::Value(exec_id), minidb::Value(metric_id), minidb::Value(value)});
  };
  // No focus at all: the context is empty, on both sides alike.
  insertBare("runA", metric, 5.0);
  insertBare("runB", metric, 15.0);
  // A metric id with no metric row is not a result at all.
  insertBare("runA", 9999, 1.0);
  const Report report = diff("runA", "runB");
  EXPECT_EQ(report.stats.results_a, 1u);
  EXPECT_EQ(report.stats.results_b, 1u);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].context, "");
  EXPECT_DOUBLE_EQ(report.rows[0].ratio, 3.0);
}

TEST_F(DiagTest, SelfDiffIsClean) {
  store_.addExecution("runA", "app");
  store_.addResource("/mach", "grid/machine");
  addResult("runA", "/mach", "wall_ms", 12.0);
  const Report report = diff("runA", "runA");
  EXPECT_EQ(report.stats.aligned, 1u);
  EXPECT_EQ(report.stats.divergent, 0u);
  EXPECT_TRUE(report.rows.empty());
}

}  // namespace
}  // namespace perftrack::core::diag
