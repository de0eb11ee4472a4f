// Serve-loop contracts (serve/loop.hpp): modeled-service determinism across
// thread counts (byte-identical telemetry), backpressure accounting under
// both overflow policies, coalescing safety and counting, and the committed
// serve repro staying fixed.
#include "wmcast/serve/loop.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "wmcast/chaos/campaign.hpp"
#include "wmcast/chaos/oracles.hpp"
#include "wmcast/chaos/shrink.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/serve/workload.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::serve {
namespace {

wlan::Scenario test_scenario(uint64_t seed = 11) {
  wlan::GeneratorParams gp;
  gp.n_aps = 10;
  gp.n_users = 30;
  gp.n_sessions = 3;
  gp.area_side_m = 300.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(gp, rng);
}

ctrl::ControllerConfig controller_config(int threads) {
  ctrl::ControllerConfig cfg;
  cfg.seed = 11;
  cfg.threads = threads;
  cfg.max_batch = 0;  // the serve loop owns batching
  return cfg;
}

ServeConfig modeled_config() {
  ServeConfig scfg;
  scfg.batch_max = 32;
  scfg.staleness_s = 0.02;
  scfg.queue_cap = 0;
  scfg.modeled_service = true;
  return scfg;
}

std::vector<TimedEvent> test_workload(const wlan::Scenario& sc,
                                      const std::string& profile = "mixed",
                                      uint64_t seed = 17) {
  WorkloadParams wp;
  wp.duration_s = 2.0;
  wp.events_per_s = 300.0;
  wp.seed = seed;
  return generate_workload(ctrl::NetworkState::from_scenario(sc),
                           WorkloadProfile::named(profile), wp);
}

// The tentpole determinism property: with the deterministic service model,
// the full telemetry document (minus wall-clock fields) is a pure function
// of (workload, config) — byte-identical at --threads=1 vs N.
TEST(ServeLoop, ModeledTelemetryByteIdenticalAcrossThreadCounts) {
  const auto sc = test_scenario();
  const auto events = test_workload(sc);

  std::vector<std::string> dumps;
  for (const int threads : {1, 4}) {
    ctrl::AssociationController c(sc, controller_config(threads));
    ServeLoop loop(&c, modeled_config());
    for (const auto& te : events) loop.offer(te.t_s, te.ev);
    const ServeTelemetry& tele = loop.finish(2.0);
    dumps.push_back(tele.to_json(/*include_variant=*/false).dump(2));
    EXPECT_GT(tele.batches.value(), 1u);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ServeLoop, RejectNewestAccountsEveryArrival) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.queue_cap = 8;
  scfg.batch_max = 8;
  scfg.staleness_s = 10.0;  // nothing drains on staleness during the burst
  scfg.policy = OverflowPolicy::kRejectNewest;
  ServeLoop loop(&c, scfg);

  // 40 same-stamp moves: nothing is due mid-burst (the server is free but
  // batches trigger at full/stale), so the queue caps and the rest reject.
  for (int i = 0; i < 40; ++i) {
    loop.offer(0.0, ctrl::Event::move(i % sc.n_users(), {1.0, 1.0}));
  }
  const ServeTelemetry& tele = loop.finish();
  EXPECT_EQ(tele.offered.value(), 40u);
  EXPECT_GT(tele.rejected.value(), 0u);
  EXPECT_EQ(tele.shed.value(), 0u);
  EXPECT_EQ(tele.offered.value(), tele.accepted.value() + tele.rejected.value());
  EXPECT_EQ(tele.accepted.value(),
            tele.submitted.value() + tele.coalesced.value() + tele.shed.value());
}

TEST(ServeLoop, ShedOldestEvictsInsteadOfRejecting) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.queue_cap = 8;
  scfg.batch_max = 8;
  scfg.staleness_s = 10.0;
  scfg.policy = OverflowPolicy::kShedOldest;
  scfg.coalesce = false;
  ServeLoop loop(&c, scfg);

  for (int i = 0; i < 40; ++i) {
    loop.offer(0.0, ctrl::Event::move(i % sc.n_users(), {1.0, 1.0}));
  }
  const ServeTelemetry& tele = loop.finish();
  EXPECT_EQ(tele.offered.value(), 40u);
  EXPECT_EQ(tele.rejected.value(), 0u);
  EXPECT_GT(tele.shed.value(), 0u);
  EXPECT_EQ(tele.offered.value(), tele.accepted.value());
  EXPECT_EQ(tele.accepted.value(),
            tele.submitted.value() + tele.coalesced.value() + tele.shed.value());
}

TEST(ServeLoop, CoalescesRedundantMovesToTheLastOne) {
  const auto sc = test_scenario();
  ServeConfig scfg = modeled_config();
  scfg.batch_max = 16;

  // Two identical stacks, one with coalescing off; 10 moves of one user in a
  // single batch must fold to the final position either way.
  ctrl::AssociationController a(sc, controller_config(1));
  ctrl::AssociationController b(sc, controller_config(1));
  ServeLoop with(&a, scfg);
  scfg.coalesce = false;
  ServeLoop without(&b, scfg);
  for (int i = 0; i < 10; ++i) {
    const ctrl::Event e = ctrl::Event::move(0, {10.0 + i, 20.0});
    with.offer(0.0, e);
    without.offer(0.0, e);
  }
  with.finish();
  without.finish();
  EXPECT_EQ(with.telemetry().coalesced.value(), 9u);
  EXPECT_EQ(with.telemetry().submitted.value(), 1u);
  EXPECT_EQ(without.telemetry().coalesced.value(), 0u);
  EXPECT_EQ(a.state(), b.state());
  EXPECT_DOUBLE_EQ(a.state().slot(0).pos.x, 19.0);
}

TEST(ServeLoop, DoesNotCoalesceAcrossPresenceChanges) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.batch_max = 16;
  ServeLoop loop(&c, scfg);

  // move, leave, rejoin, move in one batch: the first move may not fold into
  // the last (a leave sits between them), so nothing per-user coalesces.
  loop.offer(0.0, ctrl::Event::move(0, {10.0, 10.0}));
  loop.offer(0.0, ctrl::Event::leave(0));
  loop.offer(0.0, ctrl::Event::join(0, {30.0, 30.0}, 1));
  loop.offer(0.0, ctrl::Event::move(0, {40.0, 40.0}));
  loop.finish();
  EXPECT_EQ(loop.telemetry().coalesced.value(), 0u);
  EXPECT_EQ(loop.telemetry().submitted.value(), 4u);
  EXPECT_TRUE(c.state().slot(0).present);
  EXPECT_DOUBLE_EQ(c.state().slot(0).pos.x, 40.0);
}

TEST(ServeLoop, LastRateChangePerSessionWins) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeLoop loop(&c, modeled_config());
  for (int i = 1; i <= 5; ++i) {
    loop.offer(0.0, ctrl::Event::rate_change(0, static_cast<double>(i)));
  }
  loop.finish();
  EXPECT_EQ(loop.telemetry().coalesced.value(), 4u);
  EXPECT_DOUBLE_EQ(c.state().session_rate(0), 5.0);
}

TEST(ServeLoop, StalenessBoundsBatchWait) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.batch_max = 1000;     // never fills
  scfg.staleness_s = 0.01;
  ServeLoop loop(&c, scfg);

  loop.offer(0.0, ctrl::Event::move(0, {5.0, 5.0}));
  loop.advance_to(0.5);  // far past the staleness deadline
  EXPECT_EQ(loop.telemetry().batches.value(), 1u);
  // Modeled latency = staleness wait + modeled service; well under 0.02 + eps.
  const ServeTelemetry& tele = loop.finish(0.5);
  EXPECT_GT(tele.latency_s.quantile(1.0), 0.0);
  EXPECT_LE(tele.latency_s.quantile(1.0), 0.011 + 1e-3);
}

// staleness_s == 0 edge: an event is stale the moment it arrives, so every
// offer on an idle server dispatches its own batch immediately — no event
// ever waits for a second one, and the only modeled latency is service time.
TEST(ServeLoop, ZeroStalenessDispatchesEveryEventImmediately) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.batch_max = 1000;  // never fills: staleness alone must trigger
  scfg.staleness_s = 0.0;
  ServeLoop loop(&c, scfg);

  for (int i = 0; i < 10; ++i) {
    // Spaced far beyond the modeled service time, so the server is idle at
    // every arrival. offer() advances the clock before pushing, so event i
    // dispatches at the next call — every earlier event already has its own
    // batch, none ever waited for a companion.
    loop.offer(0.1 * i, ctrl::Event::move(i % sc.n_users(), {5.0 + i, 5.0}));
    EXPECT_EQ(loop.telemetry().batches.value(), static_cast<uint64_t>(i));
  }
  const ServeTelemetry& tele = loop.finish(1.0);
  EXPECT_EQ(tele.batches.value(), 10u);
  EXPECT_EQ(tele.submitted.value() + tele.coalesced.value(), 10u);
  // No staleness wait component: latency is pure modeled service.
  EXPECT_LE(tele.queue_wait_s.quantile(1.0), 1e-9);
}

// finish() racing the batch due at the last stamp: with staleness 0 every
// batch dispatches eagerly, and finishing right at the last stamp (no
// advance_to grace) leaves the final batches to the force-drain itself. It
// must account for every accepted event exactly once, and the run must be
// byte-identical with one controller thread or four.
TEST(ServePipeline, ForceFlushJoinsTheRacingBatchAtFinish) {
  const auto sc = test_scenario();
  const auto events = test_workload(sc);

  std::vector<std::string> dumps;
  for (const int threads : {1, 4}) {
    ctrl::AssociationController c(sc, controller_config(threads));
    ServeConfig scfg = modeled_config();
    scfg.staleness_s = 0.0;
    ServeLoop loop(&c, scfg);
    for (const auto& te : events) loop.offer(te.t_s, te.ev);
    const ServeTelemetry& tele = loop.finish(events.back().t_s);
    EXPECT_EQ(tele.offered.value(), events.size());
    EXPECT_EQ(tele.offered.value(), tele.accepted.value() + tele.rejected.value());
    EXPECT_EQ(tele.accepted.value(),
              tele.submitted.value() + tele.coalesced.value() + tele.shed.value());
    EXPECT_EQ(tele.latency_s.count(), tele.accepted.value());
    dumps.push_back(tele.to_json(/*include_variant=*/false).dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ServeLoop, OfferRequiresMonotoneStamps) {
  const auto sc = test_scenario();
  ctrl::AssociationController c(sc, controller_config(1));
  ServeLoop loop(&c, modeled_config());
  loop.offer(1.0, ctrl::Event::move(0, {5.0, 5.0}));
  EXPECT_THROW(loop.offer(0.5, ctrl::Event::move(1, {6.0, 6.0})),
               std::invalid_argument);
}

// Oracle-level regression: the committed storm repro must keep passing the
// serve coalescing differential (chaos/oracles.hpp) through the run_repro
// serve.* dispatch — exactly how a shrunk serve failure would be replayed.
TEST(ServeRepro, CommittedStormReproStaysFixed) {
  const std::filesystem::path path = std::filesystem::path(WMCAST_TEST_DATA_DIR) /
                                     "repros" / "repro_serve_coalescing.repro";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const chaos::Repro r = chaos::load_repro(path.string());
  EXPECT_EQ(r.check, "serve.coalesce_equivalence");
  EXPECT_EQ(r.profile, "storm");
  const auto res = chaos::run_repro(r);
  EXPECT_EQ(chaos::failures_to_text(res.results), "");
  EXPECT_EQ(res.epochs_run, r.trace.n_epochs());
  bool saw_equivalence = false;
  for (const auto& o : res.results) {
    if (o.check == "serve.coalesce_equivalence") saw_equivalence = true;
  }
  EXPECT_TRUE(saw_equivalence);
}

// Measured (wall-clock) service prices each batch by its drain time; the
// conservation laws and the per-event histogram counts must still close.
TEST(ServeLoop, WallClockServiceConserves) {
  const auto sc = test_scenario();
  const auto events = test_workload(sc);
  ctrl::AssociationController c(sc, controller_config(1));
  ServeConfig scfg = modeled_config();
  scfg.modeled_service = false;
  ServeLoop loop(&c, scfg);
  for (const auto& te : events) loop.offer(te.t_s, te.ev);
  const ServeTelemetry& tele = loop.finish(2.0);
  EXPECT_EQ(tele.offered.value(), tele.accepted.value() + tele.rejected.value());
  EXPECT_EQ(tele.accepted.value(),
            tele.submitted.value() + tele.coalesced.value() + tele.shed.value());
  EXPECT_EQ(tele.latency_s.count(), tele.queue_wait_s.count());
  EXPECT_EQ(tele.latency_s.count(), tele.decision_s.count());
  EXPECT_EQ(tele.latency_s.count(), tele.accepted.value());
}

// The latency split is exact: every ingested event lands once in each of
// latency_s / queue_wait_s / decision_s, and queue_wait + decision == latency
// per event (checked here through the quantile endpoints of a one-batch run).
TEST(ServeTelemetrySplit, HistogramCountsConserve) {
  const auto sc = test_scenario();
  const auto events = test_workload(sc);
  ctrl::AssociationController c(sc, controller_config(1));
  ServeLoop loop(&c, modeled_config());
  for (const auto& te : events) loop.offer(te.t_s, te.ev);
  const ServeTelemetry& tele = loop.finish(2.0);
  EXPECT_EQ(tele.latency_s.count(), tele.accepted.value());
  EXPECT_EQ(tele.queue_wait_s.count(), tele.accepted.value());
  EXPECT_EQ(tele.decision_s.count(), tele.accepted.value());
  // decision is bounded by the modeled service ceiling; queue_wait by the
  // staleness deadline plus server busy time — both must be present in JSON.
  const std::string js = tele.to_json(false).dump();
  EXPECT_NE(js.find("queue_wait_s"), std::string::npos);
  EXPECT_NE(js.find("decision_s"), std::string::npos);
  EXPECT_NE(js.find("\"pipeline\""), std::string::npos);
}

// The occupancy instrument is stamp-defined: a one-batch idle run reports no
// overlap; a saturating burst (service model slower than arrivals) reports
// overlapped batches.
TEST(ServeTelemetrySplit, OverlappedCounterTracksBusyArrivals) {
  const auto sc = test_scenario();
  ServeConfig scfg = modeled_config();
  scfg.batch_max = 4;
  scfg.staleness_s = 0.0005;
  scfg.model_batch_s = 0.05;  // each batch far outlasts the arrival gap

  ctrl::AssociationController busy(sc, controller_config(1));
  ServeLoop loop(&busy, scfg);
  for (int i = 0; i < 64; ++i) {
    loop.offer(0.001 * i, ctrl::Event::move(i % sc.n_users(), {1.0 + i, 1.0}));
  }
  const ServeTelemetry& saturated = loop.finish();
  EXPECT_GT(saturated.pipeline_overlapped.value(), 0u);
  EXPECT_LE(saturated.pipeline_overlapped.value(), saturated.batches.value());

  // Idle stream: one batch, server never busy when its head arrived.
  ctrl::AssociationController c(sc, controller_config(1));
  ServeLoop idle(&c, modeled_config());
  idle.offer(0.5, ctrl::Event::move(0, {2.0, 2.0}));
  const ServeTelemetry& tele = idle.finish(1.0);
  EXPECT_EQ(tele.batches.value(), 1u);
  EXPECT_EQ(tele.pipeline_overlapped.value(), 0u);
}

// Oracle-level regression for the sharded-repair serve differential: the
// committed repro must keep passing through the run_repro
// serve.repair_parallel dispatch.
TEST(ServeRepro, CommittedRepairParallelReproStaysFixed) {
  const std::filesystem::path path = std::filesystem::path(WMCAST_TEST_DATA_DIR) /
                                     "repros" / "repro_repair_parallel.repro";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const chaos::Repro r = chaos::load_repro(path.string());
  EXPECT_EQ(r.check, "serve.repair_parallel_equivalence");
  EXPECT_EQ(r.threads, 4);
  const auto res = chaos::run_repro(r);
  EXPECT_EQ(chaos::failures_to_text(res.results), "");
  EXPECT_EQ(res.epochs_run, r.trace.n_epochs());
  bool saw_equivalence = false;
  bool saw_telemetry = false;
  for (const auto& o : res.results) {
    if (o.check == "serve.repair_parallel_equivalence") saw_equivalence = true;
    if (o.check == "serve.repair_parallel_telemetry") saw_telemetry = true;
  }
  EXPECT_TRUE(saw_equivalence);
  EXPECT_TRUE(saw_telemetry);
}

}  // namespace
}  // namespace wmcast::serve
