// The execution-option table (minidb/sql/options.h): its rows, the strict
// text parser behind env vars and ptserverd flags, and Engine::setOption.
#include "minidb/sql/options.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "minidb/database.h"
#include "minidb/sql/executor.h"
#include "util/error.h"

namespace perftrack::minidb::sql {
namespace {

std::optional<std::int64_t> parse(std::string_view name, std::string_view text) {
  return parseOptionValue(optionTable()[optionIndex(name)], text);
}

TEST(OptionTable, FiveRowsInWireIdOrderWithDefaultsInRange) {
  const char* names[] = {"use_indexes", "exec_threads", "exec_batch_rows", "invidx",
                         "exec_min_pages"};
  ASSERT_EQ(optionTable().size(), 5u);
  for (std::size_t i = 0; i < optionTable().size(); ++i) {
    const OptionSpec& spec = optionTable()[i];
    EXPECT_EQ(spec.name, names[i]);
    EXPECT_EQ(optionIndex(spec.name), i);
    EXPECT_LE(spec.min, spec.def) << spec.name;
    EXPECT_LE(spec.def, spec.max) << spec.name;
    if (spec.type == OptionType::Bool) {
      EXPECT_EQ(spec.min, 0);
      EXPECT_EQ(spec.max, 1);
    }
    const std::int64_t resolved = spec.get(processOptions());
    EXPECT_GE(resolved, spec.min) << spec.name;
    EXPECT_LE(resolved, spec.max) << spec.name;
  }
  EXPECT_THROW(optionIndex("exec_bogus"), util::SqlError);
}

TEST(OptionParse, IntsMustBeWholeDecimalStringsInRange) {
  EXPECT_EQ(parse("exec_min_pages", "abc"), std::nullopt);
  EXPECT_EQ(parse("exec_min_pages", ""), std::nullopt);
  EXPECT_EQ(parse("exec_min_pages", "0"), 0);  // a real value: gate off
  EXPECT_EQ(parse("exec_min_pages", "16"), 16);
  EXPECT_EQ(parse("exec_min_pages", "-1"), std::nullopt);
  EXPECT_EQ(parse("exec_batch_rows", "12abc"), std::nullopt);
  EXPECT_EQ(parse("exec_batch_rows", "12"), 12);
  EXPECT_EQ(parse("exec_batch_rows", " 12"), std::nullopt);
  EXPECT_EQ(parse("exec_batch_rows", "+12"), std::nullopt);
  EXPECT_EQ(parse("exec_batch_rows", "0"), std::nullopt);
  EXPECT_EQ(parse("exec_batch_rows", "65536"), 65536);
  EXPECT_EQ(parse("exec_batch_rows", "65537"), std::nullopt);
  EXPECT_EQ(parse("exec_threads", "0"), std::nullopt);
  EXPECT_EQ(parse("exec_threads", "4"), 4);
  EXPECT_EQ(parse("exec_threads", "99999999999999999999"), std::nullopt);
}

TEST(OptionParse, BoolsAcceptOnlyTheSixSpellingsInAnyCase) {
  EXPECT_EQ(parse("invidx", "no"), std::nullopt);
  EXPECT_EQ(parse("invidx", "OFF"), 0);
  EXPECT_EQ(parse("invidx", "off"), 0);
  EXPECT_EQ(parse("invidx", "False"), 0);
  EXPECT_EQ(parse("invidx", "0"), 0);
  EXPECT_EQ(parse("invidx", "On"), 1);
  EXPECT_EQ(parse("invidx", "TRUE"), 1);
  EXPECT_EQ(parse("invidx", "1"), 1);
  EXPECT_EQ(parse("invidx", "2"), std::nullopt);
  EXPECT_EQ(parse("invidx", ""), std::nullopt);
  EXPECT_EQ(parse("use_indexes", "offf"), std::nullopt);
}

TEST(EngineSetOption, ValidatesAndReportsChanges) {
  auto db = Database::openMemory();
  Engine engine(*db);
  EXPECT_EQ(engine.options().batch_rows, processOptions().batch_rows);
  EXPECT_TRUE(engine.setOption("exec_batch_rows", 7));
  EXPECT_EQ(engine.options().batch_rows, 7u);
  EXPECT_FALSE(engine.setOption("exec_batch_rows", 7));
  EXPECT_THROW(engine.setOption("exec_batch_rows", 0), util::SqlError);
  EXPECT_EQ(engine.options().batch_rows, 7u);  // a refused value changes nothing
  EXPECT_TRUE(engine.setOption("exec_min_pages", 0));
  EXPECT_EQ(engine.options().min_pages, 0u);
  EXPECT_THROW(engine.setOption("exec_bogus", 1), util::SqlError);
}

}  // namespace
}  // namespace perftrack::minidb::sql
