#include "bench_common.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"

namespace repro::bench {
namespace {

// Runs `declare` against a fresh Harness writing to a temporary record,
// then returns finish()'s exit status and the parsed record.
template <typename Declare>
int run_harness(Declare declare, util::json::Value& record) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_bench_harness.json")
          .string();
  std::string arg0 = "bench", arg1 = path;
  char* argv[] = {arg0.data(), arg1.data()};
  Harness h("harness_test", 2, argv);
  declare(h);
  const int status = h.finish();
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::filesystem::remove(path);
  record = util::json::parse_or_throw(text.str());
  return status;
}

bool record_ok(const util::json::Value& record) {
  const util::json::Value* ok = record.find("ok");
  return ok != nullptr && ok->kind == util::json::Kind::kBool && ok->boolean;
}

TEST(BenchHarness, HoldingGatesPassAndAreRecorded) {
  util::json::Value record;
  const int status = run_harness(
      [](Harness& h) {
        h.metric("rank", std::size_t{132});
        h.metric("miss_rate", 6.4e-5);
        h.metric("parity", true);
        h.metric("tier", "avx2");
        h.gate("rank", "==", std::size_t{132});
        h.gate("miss_rate", "<", 1e-3);
        h.gate("parity", "==", true);
        h.gate("tier", "present");
      },
      record);
  EXPECT_EQ(status, 0);
  EXPECT_TRUE(record_ok(record));
  EXPECT_EQ(record.number_or("schema_version", 0.0), 2.0);
  const util::json::Value* gates = record.find("gates");
  ASSERT_NE(gates, nullptr);
  ASSERT_EQ(gates->items.size(), 4u);
  EXPECT_EQ(gates->items[1].string_or("metric", ""), "miss_rate");
  EXPECT_EQ(gates->items[1].string_or("op", ""), "<");
  EXPECT_EQ(gates->items[1].number_or("bound", 0.0), 1e-3);
  EXPECT_EQ(gates->items[3].find("bound"), nullptr);
}

TEST(BenchHarness, ViolatedGateFails) {
  util::json::Value record;
  EXPECT_EQ(run_harness(
                [](Harness& h) {
                  h.metric("miss_rate", 2e-3);
                  h.gate("miss_rate", "<", 1e-3);
                },
                record),
            1);
  EXPECT_FALSE(record_ok(record));
}

TEST(BenchHarness, GateOnAbsentMetricFails) {
  util::json::Value record;
  EXPECT_EQ(run_harness(
                [](Harness& h) {
                  h.metric("configs", 4);
                  h.gate("total_missed", "present");
                },
                record),
            1);
  EXPECT_FALSE(record_ok(record));
}

TEST(BenchHarness, RecordWithoutGatesFails) {
  util::json::Value record;
  EXPECT_EQ(run_harness([](Harness& h) { h.metric("configs", 4); }, record),
            1);
  EXPECT_FALSE(record_ok(record));
}

TEST(BenchHarness, MismatchedKindsAndUnknownOpsFail) {
  util::json::Value record;
  // A boolean bound never matches a number, and ordering needs numbers.
  EXPECT_EQ(run_harness(
                [](Harness& h) {
                  h.metric("count", 1);
                  h.gate("count", "==", true);
                },
                record),
            1);
  EXPECT_EQ(run_harness(
                [](Harness& h) {
                  h.metric("flag", true);
                  h.gate("flag", ">=", 0);
                },
                record),
            1);
  EXPECT_EQ(run_harness(
                [](Harness& h) {
                  h.metric("count", 1);
                  h.gate("count", "!=", 0);
                },
                record),
            1);
}

}  // namespace
}  // namespace repro::bench
