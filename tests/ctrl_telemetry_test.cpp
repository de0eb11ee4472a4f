#include "wmcast/ctrl/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/serve/latency.hpp"

namespace wmcast::ctrl {
namespace {

TEST(BucketHistogram, ValidatesBounds) {
  EXPECT_THROW(BucketHistogram({}), std::invalid_argument);
  EXPECT_THROW(BucketHistogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(BucketHistogram::exponential(0.0, 2.0, 4), std::invalid_argument);
}

TEST(BucketHistogram, RecordsIntoTheRightBuckets) {
  BucketHistogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // <= 1 (bound is inclusive)
  h.record(5.0);    // <= 10
  h.record(500.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 0u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 506.5);
  EXPECT_DOUBLE_EQ(h.min_value(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_value(), 500.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5) << "q=0 reports the exact min";
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 500.0) << "overflow reports the exact max";
}

// Documented contract: an empty histogram has no quantiles (NaN), a single
// sample is every quantile of itself, and serialization stays numeric.
TEST(BucketHistogram, EmptyAndSingleSampleQuantiles) {
  BucketHistogram h(std::vector<double>{10.0, 100.0});
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_DOUBLE_EQ(h.to_json().find("p50")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(h.to_json().find("p99")->as_double(), 0.0);

  h.record(42.0);  // lands in the 100.0 bucket; the sample itself is 42
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 42.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.to_json().find("p50")->as_double(), 42.0);
}

TEST(BucketHistogram, ExponentialLadder) {
  const auto h = BucketHistogram::exponential(1.0, 2.0, 4);
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(BucketHistogram, JsonCarriesTheFullDistribution) {
  BucketHistogram h({1.0, 2.0});
  h.record(0.5);
  h.record(1.5);
  const auto j = h.to_json();
  ASSERT_NE(j.find("upper_bounds"), nullptr);
  EXPECT_EQ(j.find("upper_bounds")->size(), 2u);
  EXPECT_EQ(j.find("counts")->size(), 3u);
  EXPECT_EQ(j.find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(j.find("mean")->as_double(), 1.0);
}

TEST(Telemetry, JsonMatchesTheDocumentedSchema) {
  Telemetry t;
  t.events_ingested.inc(5);
  t.handoffs.inc(2);
  t.total_load.set(6.5);
  t.dirty_region_size.record(12.0);

  const auto j = t.to_json();
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), kTelemetrySchema);

  const auto* counters = j.find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* key :
       {"events_ingested", "events_applied", "events_coalesced", "events_invalid",
        "events_by_type", "drains", "epochs", "incremental_repairs",
        "warm_escalations", "full_solves", "baseline_refreshes", "rollbacks",
        "full_solve_rejections", "joins_admitted", "joins_rejected",
        "reassociations", "handoffs", "forced_reassociations"}) {
    EXPECT_NE(counters->find(key), nullptr) << "missing counter " << key;
  }
  EXPECT_EQ(counters->find("events_ingested")->as_int(), 5);
  EXPECT_EQ(counters->find("handoffs")->as_int(), 2);
  EXPECT_EQ(counters->find("events_by_type")->size(), 6u);

  const auto* gauges = j.find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* key : {"users_present", "users_subscribed", "users_served",
                          "total_load", "max_load", "baseline_load",
                          "degradation_pct", "queue_depth"}) {
    EXPECT_NE(gauges->find(key), nullptr) << "missing gauge " << key;
  }
  EXPECT_DOUBLE_EQ(gauges->find("total_load")->as_double(), 6.5);

  const auto* histograms = j.find("histograms");
  ASSERT_NE(histograms, nullptr);
  for (const char* key : {"dirty_region_size", "reassoc_per_epoch", "drain_seconds"}) {
    EXPECT_NE(histograms->find(key), nullptr) << "missing histogram " << key;
  }
  EXPECT_EQ(histograms->find("dirty_region_size")->find("count")->as_int(), 1);

  // The dump must survive a strict re-parse (what benches validate).
  const auto reparsed = util::Json::parse(j.dump(2));
  EXPECT_EQ(reparsed.find("schema")->as_string(), kTelemetrySchema);
}

// One row per instrument, each path once. Exactly the parallel-solve stats
// and the drain wall time vary with --threads or the clock; the invariant
// dump drops them and nothing else.
TEST(Telemetry, RowsCoverEveryInstrumentOnce) {
  std::set<std::string> paths;
  std::set<std::string> variant;
  for (const auto& row : Telemetry::rows()) {
    EXPECT_TRUE(paths.insert(row.path).second) << "duplicate row " << row.path;
    if (!row.invariant) variant.insert(row.path);
  }
  EXPECT_EQ(paths.size(), 53u);
  const std::set<std::string> expected = {
      "counters.engine.parallel.solves",
      "counters.engine.parallel.tasks",
      "counters.engine.parallel.workers",
      "counters.engine.parallel.imbalance",
      "counters.engine.parallel.arena_peak_bytes",
      "counters.engine.parallel.arena_reserved_bytes",
      "histograms.drain_seconds",
  };
  EXPECT_EQ(variant, expected);

  const Telemetry t;
  const auto all = t.to_json();
  const auto invariant = t.to_json(/*include_variant=*/false);
  const auto* parallel = invariant.find("counters")->find("engine")->find("parallel");
  EXPECT_EQ(parallel->find("solves"), nullptr);
  EXPECT_NE(parallel->find("repair_shards"), nullptr);
  EXPECT_EQ(invariant.find("histograms")->find("drain_seconds"), nullptr);
  EXPECT_EQ(invariant.find("histograms")->size(), 2u);
  EXPECT_EQ(all.find("counters")->find("engine")->find("parallel")->size(), 9u);

  std::set<std::string> serve_variant;
  for (const auto& row : serve::ServeTelemetry::rows()) {
    if (!row.invariant) serve_variant.insert(row.path);
  }
  EXPECT_EQ(serve_variant, (std::set<std::string>{"wall.elapsed_s", "wall.events_per_s"}));
}

// The emitter nests rows by path, keeps their order, and writes counters as
// integers and gauges as doubles.
TEST(MetricRows, EmitNestedObjectsInRowOrder) {
  struct S {
    Counter a;
    Gauge b;
    Counter c;
  };
  const std::vector<util::MetricRow<S>> rows = {
      {"x.a", &S::a},
      {"x.y.b", &S::b, false},
      {"x.c", &S::c},
      {"z", [](const S& s) -> util::Json { return static_cast<int64_t>(s.a.value() * 2); }},
  };
  S s;
  s.a.inc(3);
  s.b.set(1.5);
  EXPECT_EQ(util::metrics_json("t/v1", rows, s, true).dump(),
            R"({"schema":"t/v1","x":{"a":3,"y":{"b":1.5},"c":0},"z":6})");
  EXPECT_EQ(util::metrics_json("t/v1", rows, s, false).dump(),
            R"({"schema":"t/v1","x":{"a":3,"c":0},"z":6})");
}

// record() folds one report: every drained epoch counts a drain, an epoch and
// a histogram sample; the constructor's seed report counts none of them.
TEST(Telemetry, RecordFoldsOneEpochReport) {
  EpochReport rep;
  rep.events = 4;
  rep.events_applied = 3;
  rep.events_invalid = 1;
  rep.events_by_type[static_cast<size_t>(EventType::kUserMove)] = 4;
  rep.repair_calls = 2;
  rep.repair_shards_run = 5;
  rep.repair_imbalance = 1.25;
  rep.reassociations = 7;
  rep.total_load = 3.0;
  rep.baseline_load = 2.0;
  Telemetry t;
  t.record(rep);
  t.record(rep, /*drained=*/false);
  EXPECT_EQ(t.drains.value(), 1u);
  EXPECT_EQ(t.epochs.value(), 1u);
  EXPECT_EQ(t.events_ingested.value(), 8u);
  EXPECT_EQ(t.events_by_type[static_cast<size_t>(EventType::kUserMove)].value(), 8u);
  EXPECT_EQ(t.incremental_repairs.value(), 2u);
  EXPECT_EQ(t.engine_parallel_repair_calls.value(), 4u);
  EXPECT_EQ(t.engine_parallel_repair_shards.value(), 10u);
  EXPECT_DOUBLE_EQ(t.engine_parallel_repair_imbalance.value(), 1.25);
  EXPECT_DOUBLE_EQ(t.degradation_pct.value(), 50.0);
  EXPECT_EQ(t.engine_parallel_solves.value(), 0u) << "no parallel solve reported";
  EXPECT_EQ(t.reassoc_per_epoch.count(), 1u);
  EXPECT_EQ(t.drain_seconds.count(), 1u);
}

}  // namespace
}  // namespace wmcast::ctrl
