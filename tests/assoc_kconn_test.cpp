// k-connectivity association tests (DESIGN.md §15): the k >= 2 overlay's
// structural invariants, the additive combine rule, and the contract that
// k == 1 reproduces every legacy solver bit for bit.

#include "wmcast/assoc/kconn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "test_fixtures.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

wlan::Scenario random_scenario(util::Rng& rng, int n_aps = 20, int n_users = 60) {
  wlan::GeneratorParams gp;
  gp.n_aps = n_aps;
  gp.n_users = n_users;
  gp.n_sessions = 5;
  util::Rng sub = rng.fork();
  return wlan::generate_scenario(gp, sub);
}

/// Structural invariants every overlay must satisfy (mirrors the chaos
/// oracle's checks): base-unserved users stay unserved, the primary AP is in
/// the served-set, served-sets are sorted/duplicate-free, every serving AP is
/// in radio range, and |served-set| <= min(k, |heard-set|).
void expect_overlay_valid(const wlan::Scenario& sc, const Solution& sol, int k) {
  for (int u = 0; u < sc.n_users(); ++u) {
    const auto& sv = sol.multi.aps_of(u);
    const int primary = sol.assoc.ap_of(u);
    if (primary == wlan::kNoAp) {
      EXPECT_TRUE(sv.empty()) << "user " << u << " base-unserved yet in overlay";
      continue;
    }
    EXPECT_TRUE(std::binary_search(sv.begin(), sv.end(), primary))
        << "user " << u << " served-set misses its primary";
    for (size_t i = 0; i < sv.size(); ++i) {
      if (i > 0) {
        EXPECT_GT(sv[i], sv[i - 1]) << "user " << u;
      }
      EXPECT_GT(sc.link_rate(sv[i], u), 0.0)
          << "user " << u << " served by out-of-range AP " << sv[i];
    }
    const int cap = std::min(k, static_cast<int>(sc.aps_of_user(u).size()));
    EXPECT_LE(static_cast<int>(sv.size()), cap) << "user " << u;
  }
}

// Every k-capable solver at k == 1 must leave the legacy Solution untouched:
// same association and load report as the direct legacy call, k == 1, and an
// empty overlay. Differential over 50+ random instances (10 instances x 5
// solvers, then the 5-solver identity re-checked per instance counts 50
// solver-instance pairs).
TEST(KconnIdentity, K1ReproducesEveryLegacySolver) {
  static const char* kSolvers[] = {"ssa", "mla-c", "bla-c", "mnu-c",
                                   "local-search"};
  util::Rng rng(911);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sc = random_scenario(rng);
    for (const char* name : kSolvers) {
      SolveOptions k1;
      k1.k = 1;
      util::Rng ra(7);
      util::Rng rb(7);
      const Solution with_k = solve_by_name(name, sc, ra, k1);
      const Solution legacy = solve_by_name(name, sc, rb);
      EXPECT_EQ(with_k.assoc, legacy.assoc) << name << " trial " << trial;
      EXPECT_EQ(with_k.loads.ap_load, legacy.loads.ap_load) << name;
      EXPECT_EQ(with_k.loads.satisfied_users, legacy.loads.satisfied_users) << name;
      EXPECT_EQ(with_k.k, 1) << name;
      EXPECT_EQ(with_k.multi.n_users(), 0)
          << name << ": overlay must stay empty at k=1";
    }
  }
}

// The augmentation never touches the primary view: at k == 2 the embedded
// single-AP association and its load report are bit-identical to the k == 1
// solve, for every supporting solver.
TEST(KconnIdentity, AugmentationPreservesThePrimaryView) {
  static const char* kSolvers[] = {"ssa", "mla-c", "bla-c", "mnu-c",
                                   "local-search"};
  util::Rng rng(913);
  for (int trial = 0; trial < 4; ++trial) {
    const auto sc = random_scenario(rng);
    for (const char* name : kSolvers) {
      SolveOptions k1, k2;
      k1.k = 1;
      k2.k = 2;
      util::Rng ra(7);
      util::Rng rb(7);
      const Solution base = solve_by_name(name, sc, ra, k1);
      const Solution multi = solve_by_name(name, sc, rb, k2);
      EXPECT_EQ(multi.assoc, base.assoc) << name << " trial " << trial;
      EXPECT_EQ(multi.loads.ap_load, base.loads.ap_load) << name;
      EXPECT_EQ(multi.loads.total_load, base.loads.total_load) << name;
      EXPECT_EQ(multi.k, 2) << name;
      EXPECT_EQ(multi.multi_loads.satisfied_users, base.loads.satisfied_users)
          << name << ": overlay changed the served-user count";
      expect_overlay_valid(sc, multi, 2);
    }
  }
}

// k far beyond any heard-set: served-sets are capped at the heard-set size,
// never padded or out of range. fig1 has 2 APs, so k = 5 caps everyone at 2.
TEST(KconnEdge, KLargerThanHeardSetIsCapped) {
  const auto sc = test::fig1_scenario(1.0);
  CentralizedParams p;
  p.k = 5;
  const Solution sol = centralized_mla(sc, p);
  expect_overlay_valid(sc, sol, 5);
  for (int u = 0; u < sc.n_users(); ++u) {
    if (sol.assoc.ap_of(u) == wlan::kNoAp) continue;
    EXPECT_LE(sol.multi.aps_of(u).size(),
              std::min<size_t>(5, sc.aps_of_user(u).size()));
  }
  // On fig1 both APs cover overlapping users, so at least one user should
  // actually pick up a second stream.
  EXPECT_GT(sol.multi_loads.multi_served_users, 0);
}

// The combine rule is additive: each user's effective rate is exactly the sum
// of its serving APs' per-session tx rates, and the report's aggregates are
// consistent with their per-entity vectors.
TEST(KconnLoads, EffectiveRateIsTheSumOfServingStreams) {
  util::Rng rng(917);
  const auto sc = random_scenario(rng, 25, 80);
  CentralizedParams p;
  p.k = 3;
  const Solution sol = centralized_mla(sc, p);
  double total = 0.0;
  double max_load = 0.0;
  for (int a = 0; a < sc.n_aps(); ++a) {
    total += sol.multi_loads.ap_load[static_cast<size_t>(a)];
    max_load = std::max(max_load, sol.multi_loads.ap_load[static_cast<size_t>(a)]);
  }
  EXPECT_NEAR(sol.multi_loads.total_load, total, 1e-9);
  EXPECT_NEAR(sol.multi_loads.max_load, max_load, 1e-9);
  for (int u = 0; u < sc.n_users(); ++u) {
    double sum = 0.0;
    for (const int a : sol.multi.aps_of(u)) {
      const double tx = sol.multi_loads
                            .tx_rate[static_cast<size_t>(a)]
                                    [static_cast<size_t>(sc.user_session(u))];
      EXPECT_GT(tx, 0.0) << "serving AP transmits at rate 0";
      EXPECT_LE(tx, sc.link_rate(a, u) + 1e-12)
          << "user " << u << " cannot decode AP " << a << "'s stream";
      sum += tx;
    }
    EXPECT_NEAR(sol.multi_loads.effective_rate[static_cast<size_t>(u)], sum, 1e-9)
        << "user " << u;
  }
}

// Overlapping served-sets across a scenario delta: after moving users and
// rezapping sessions via Scenario::patch, a fresh k = 2 solve on the new
// scenario still produces a structurally valid overlay (in range in the NEW
// geometry), and compute_multi_loads round-trips it.
TEST(KconnEdge, OverlappingServedSetsSurviveApplyDelta) {
  util::Rng rng(919);
  const auto sc = random_scenario(rng, 20, 60);
  wlan::ScenarioDelta delta;
  for (int u = 0; u < 12; ++u) {
    delta.moved.push_back({u, {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)}});
  }
  delta.rezapped.push_back({3, 0});
  delta.rezapped.push_back({7, 1});
  std::vector<int> dirty;
  wlan::Scenario sc2 = sc;
  sc2.patch(delta, &dirty);

  CentralizedParams p;
  p.k = 2;
  const Solution sol = centralized_mla(sc2, p);
  expect_overlay_valid(sc2, sol, 2);
  const auto fresh = wlan::compute_multi_loads(sc2, sol.multi, true);
  EXPECT_EQ(fresh.ap_load, sol.multi_loads.ap_load);
  EXPECT_EQ(fresh.effective_rate, sol.multi_loads.effective_rate);
}

// Determinism: the same instance solved twice yields the same overlay, and
// the budgeted variant (MNU) never adds budget violations over its base.
TEST(KconnEdge, DeterministicAndBudgetSafe) {
  util::Rng rng(923);
  for (int trial = 0; trial < 4; ++trial) {
    const auto sc = random_scenario(rng);
    CentralizedParams p;
    p.k = 2;
    const Solution a = centralized_mnu(sc, p);
    const Solution b = centralized_mnu(sc, p);
    EXPECT_EQ(a.multi, b.multi) << "trial " << trial;
    EXPECT_LE(a.multi_loads.budget_violations, a.loads.budget_violations)
        << "budgeted augmentation added violations on trial " << trial;
  }
}

TEST(KconnRegistry, SingleApSolversRejectK2) {
  const auto sc = test::fig1_scenario(1.0);
  util::Rng rng(1);
  SolveOptions k2;
  k2.k = 2;
  for (const char* name : {"mla-d", "bla-d", "mnu-d", "lock-d"}) {
    EXPECT_THROW(solve_by_name(name, sc, rng, k2), std::invalid_argument) << name;
  }
  SolveOptions k0;
  k0.k = 0;
  EXPECT_THROW(solve_by_name("mla-c", sc, rng, k0), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::assoc
