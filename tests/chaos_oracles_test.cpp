// Differential-oracle checks (chaos/oracles.hpp) on healthy inputs — every
// oracle pair must agree when nothing is wrong — plus the strict-weak-ordering
// regression for core::better_pick that the chaos harness originally flushed
// out (a rounded FP cross-product made the lazy-greedy heap comparator
// intransitive at exact gain/cost ratio ties, so solve order — and therefore
// the committed association — depended on heap layout and thread count).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "wmcast/chaos/campaign.hpp"
#include "wmcast/chaos/fault.hpp"
#include "wmcast/chaos/oracles.hpp"
#include "wmcast/chaos/shrink.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::chaos {
namespace {

wlan::Scenario test_scenario(uint64_t seed = 3) {
  wlan::GeneratorParams gp;
  gp.n_aps = 12;
  gp.n_users = 40;
  gp.n_sessions = 3;
  gp.area_side_m = 350.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(gp, rng);
}

ctrl::EventTrace churn_trace(const ctrl::NetworkState& initial, uint64_t seed) {
  ctrl::TraceParams tp;
  tp.epochs = 6;
  tp.move_fraction = 0.2;
  tp.walk_sigma_m = 30.0;
  tp.zap_fraction = 0.05;
  tp.leave_fraction = 0.05;
  tp.join_fraction = 0.05;
  tp.rate_change_prob = 0.2;
  util::Rng rng(seed);
  return ctrl::generate_churn_trace(initial, tp, rng);
}

ctrl::ControllerConfig oracle_config(uint64_t seed) {
  return oracle_controller_config("mla-c", seed);
}

std::string all_failures(const std::vector<OracleResult>& results) {
  return failures_to_text(results);
}

TEST(SolverEquivalenceTest, EngineAgreesWithReferencesOnGeneratedScenario) {
  const auto results = check_solver_equivalence(test_scenario());
  EXPECT_FALSE(results.empty());
  EXPECT_EQ(all_failures(results), "") << "solver oracles disagree";
}

TEST(ControllerInvariantsTest, HoldAfterEveryEpochOfACleanReplay) {
  const auto sc = test_scenario();
  const auto initial = ctrl::NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 19);

  ctrl::AssociationController c(sc, oracle_config(19));
  for (int ep = 0; ep < trace.n_epochs(); ++ep) {
    c.submit(trace.epochs[static_cast<size_t>(ep)]);
    c.drain();
    const auto inv = check_controller_invariants(c, ep + 1);
    EXPECT_EQ(all_failures(inv), "") << "epoch " << ep;
  }
  const auto tele = check_telemetry_conservation(c);
  EXPECT_EQ(all_failures(tele), "");
}

TEST(DifferentialReplayTest, CleanOnUnperturbedTrace) {
  const auto sc = test_scenario();
  const auto initial = ctrl::NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 23);

  const auto r = check_differential_replay({sc, trace, oracle_config(23), 4});
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(r.epochs_run, trace.n_epochs());
  EXPECT_EQ(all_failures(r.results), "");
}

TEST(DifferentialReplayTest, CleanUnderHeavyFaultInjection) {
  const auto sc = test_scenario(31);
  const auto initial = ctrl::NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 31);

  FaultInjector inj(31, FaultProfile::named("heavy"));
  const auto perturbed = inj.perturb(trace, initial);

  const auto r = check_differential_replay({sc, perturbed, oracle_config(31), 4});
  EXPECT_FALSE(r.diverged);
  EXPECT_EQ(all_failures(r.results), "");
}

// k-connectivity oracles (DESIGN.md §15): the k=1 identity sweep must be
// clean on a healthy scenario, and the k=2 parallel differentials must agree
// even over a fault-perturbed trace.
TEST(KconnOracleTest, K1IdentitySweepCleanOnGeneratedScenario) {
  const auto results = check_kconn_k1_identity(test_scenario());
  EXPECT_EQ(results.size(), 5u) << "one verdict per k-capable solver";
  EXPECT_EQ(all_failures(results), "");
}

TEST(KconnOracleTest, ParallelDifferentialsCleanUnderFaultInjection) {
  const auto sc = test_scenario(37);
  const auto initial = ctrl::NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 37);
  FaultInjector inj(37, FaultProfile::named("heavy"));
  const auto perturbed = inj.perturb(trace, initial);

  const auto results = check_kconn_parallel({sc, perturbed, oracle_config(37), 4});
  EXPECT_EQ(all_failures(results), "");
  bool sharded = false, threads = false;
  for (const auto& r : results) {
    if (r.check == "kconn.sharded_vs_joint") sharded = true;
    if (r.check == "kconn.threads_equivalence") threads = true;
  }
  EXPECT_TRUE(sharded);
  EXPECT_TRUE(threads);
}

// The committed k-connectivity repro must keep replaying clean through the
// oracle table's kconn row — exactly how CI replays the corpus.
TEST(KconnOracleTest, CommittedThreadsReproStaysFixed) {
  const std::filesystem::path path = std::filesystem::path(WMCAST_TEST_DATA_DIR) /
                                     "repros" / "repro_kconn_threads.repro";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  const Repro r = load_repro(path.string());
  EXPECT_EQ(r.check, "kconn.threads_equivalence");
  EXPECT_EQ(r.threads, 4);
  const auto res = run_repro(r);
  EXPECT_EQ(failures_to_text(res.results), "");
  EXPECT_EQ(res.epochs_run, r.trace.n_epochs());
  bool saw_threads_check = false;
  for (const auto& o : res.results) {
    if (o.check == "kconn.threads_equivalence") saw_threads_check = true;
  }
  EXPECT_TRUE(saw_threads_check);
}

// Every check name a family emits must route back to that same family, so
// a finding is shrunk and replayed against the oracle that produced it. The
// heavy profile makes the trace exercise invalid events and bursts.
TEST(OracleTableTest, EveryEmittedCheckMapsBackToItsFamily) {
  const auto sc = test_scenario(41);
  const auto initial = ctrl::NetworkState::from_scenario(sc);
  const auto trace = churn_trace(initial, 41);
  FaultInjector inj(41, FaultProfile::named("heavy"));
  const auto perturbed = inj.perturb(trace, initial);
  const auto cfg = oracle_config(41);

  EXPECT_EQ(oracle_families().size(), 8u);
  for (const auto& family : oracle_families()) {
    SCOPED_TRACE(family.name);
    const auto res = family.run({sc, perturbed, cfg, 3});
    EXPECT_FALSE(res.results.empty());
    EXPECT_EQ(failures_to_text(res.results), "");
    for (const auto& v : res.results) {
      EXPECT_EQ(family_of(v.check).name, std::string(family.name)) << v.check;
    }
  }
  EXPECT_THROW(family_of("no.such_check"), std::invalid_argument);
}

TEST(FailuresToTextTest, FormatsOnlyFailures) {
  std::vector<OracleResult> results;
  results.push_back({"a.pass", true, ""});
  EXPECT_EQ(failures_to_text(results), "");
  results.push_back({"b.fail", false, "left != right"});
  const std::string text = failures_to_text(results);
  EXPECT_NE(text.find("b.fail"), std::string::npos);
  EXPECT_NE(text.find("left != right"), std::string::npos);
  EXPECT_EQ(text.find("a.pass"), std::string::npos);
}

// --- core::better_pick strict-weak-ordering regression -------------------
//
// The failing family found by the chaos campaign: three candidate sets whose
// gain/cost ratios are *exactly* equal as rationals (gain k, cost k*c), but
// whose rounded double cross-products gain_a*cost_b disagree at different k.
// Pre-fix, better_pick reported strict preferences among them that formed a
// cycle — undefined behavior for std::make_heap/pop_heap, and the root cause
// of a threads=1 vs threads=4 association divergence (the committed repro in
// tests/repros/repro_thread_determinism.repro). Post-fix the comparison is an
// exact integer cross-product, so exact ties fall through to the set-id
// tie-break for every magnitude.

TEST(BetterPickTest, ExactRatioTiesBreakByIdAtEveryMagnitude) {
  const double c = 0x1.79f2f25bcc489p-7;  // the cost unit from the repro
  struct Item {
    int32_t gain;
    double cost;
    int id;
  };
  // Power-of-two multiples keep gain*c exact in FP, so these ratios are
  // *exactly* equal and must all fall through to the set-id tie-break.
  const std::vector<Item> tied = {{4, 4 * c, 0}, {2, 2 * c, 1}, {1, c, 2}};
  for (const auto& a : tied) {
    for (const auto& b : tied) {
      EXPECT_EQ(core::better_pick(a.gain, a.cost, a.id, b.gain, b.cost, b.id),
                a.id < b.id)
          << "gain " << a.gain << " vs " << b.gain
          << " must be an exact tie resolved by id";
    }
  }
  // Exact ties survive large magnitude spreads (2^20 * c is exact in FP).
  const double big = c * 1048576.0;
  EXPECT_TRUE(core::better_pick(1 << 20, big, 0, 1, c, 1));
  EXPECT_FALSE(core::better_pick(1, c, 1, 1 << 20, big, 0));

  // A non-power-of-two multiple rounds (3*c != exactly 3·c), so the pair is
  // NOT a tie — the exact comparator must order it strictly and
  // asymmetrically, whichever way the rounding went.
  const bool ab = core::better_pick(3, 3 * c, 0, 1, c, 1);
  const bool ba = core::better_pick(1, c, 1, 3, 3 * c, 0);
  EXPECT_NE(ab, ba);
}

TEST(BetterPickTest, IsAStrictWeakOrderingOnTheReproFamily) {
  // Candidates (g, g·c) for g = 1..12 are near-ties whose rounded costs
  // differ from the exact product by less than half an ulp each way. The
  // pre-fix rounded cross-product comparator reported 48 transitivity
  // violations over this family (e.g. (3)<(4)<(5) but not (3)<(5)); the
  // exact comparator must report none.
  const double c = 0x1.79f2f25bcc489p-7;
  struct Item {
    int32_t gain;
    double cost;
    int id;
  };
  std::vector<Item> items;
  int id = 0;
  for (int32_t g = 1; g <= 12; ++g) {
    items.push_back({g, g * c, id++});
  }
  const auto less = [](const Item& a, const Item& b) {
    return core::better_pick(a.gain, a.cost, a.id, b.gain, b.cost, b.id);
  };
  for (const auto& a : items) {
    EXPECT_FALSE(less(a, a)) << "irreflexivity";
    for (const auto& b : items) {
      if (less(a, b)) {
        EXPECT_FALSE(less(b, a)) << "asymmetry";
      }
      for (const auto& x : items) {
        if (less(a, b) && less(b, x)) {
          EXPECT_TRUE(less(a, x)) << "transitivity: " << a.id << " < " << b.id
                                  << " < " << x.id;
        }
      }
    }
  }
}

TEST(BetterPickTest, PositiveGainAlwaysBeatsNonPositive) {
  EXPECT_TRUE(core::better_pick(1, 5.0, 9, 0, 1.0, 0));
  EXPECT_FALSE(core::better_pick(0, 1.0, 0, 1, 5.0, 9));
  // Both non-positive: pure id tie-break.
  EXPECT_TRUE(core::better_pick(0, 1.0, 0, 0, 2.0, 1));
  EXPECT_FALSE(core::better_pick(0, 1.0, 1, 0, 2.0, 0));
}

}  // namespace
}  // namespace wmcast::chaos
