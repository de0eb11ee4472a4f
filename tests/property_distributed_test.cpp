// Parameterized sweep over the distributed engine's configuration space:
// objective x update mode x budget regime x rate model. Invariants checked
// on every combination (TEST_P).
#include <gtest/gtest.h>

#include "wmcast/assoc/distributed.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::assoc {
namespace {

// gtest lists a parameter without a printer as its raw bytes, and ctest
// registers those listings as test names. The tail is an explicit zeroed
// member, not padding, so the names are the same in every build.
struct Combo {
  Objective objective;
  UpdateMode mode;
  double budget;
  bool multi_rate;
  char zero_tail[7] = {};
};
static_assert(sizeof(Combo) ==
              sizeof(Objective) + sizeof(UpdateMode) + sizeof(double) + sizeof(bool) + 7);

std::string combo_name(const testing::TestParamInfo<Combo>& info) {
  const auto& c = info.param;
  std::string s;
  s += c.objective == Objective::kTotalLoad ? "total" : "vector";
  s += c.mode == UpdateMode::kSequential ? "_seq" : "_sim";
  s += "_b" + std::to_string(static_cast<int>(c.budget * 100));
  s += c.multi_rate ? "_multi" : "_basic";
  return s;
}

class DistributedSweep : public testing::TestWithParam<Combo> {};

TEST_P(DistributedSweep, InvariantsHoldOnRandomScenarios) {
  const auto& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    wlan::GeneratorParams gp;
    gp.n_aps = 15;
    gp.n_users = 45;
    gp.n_sessions = 3;
    gp.area_side_m = 450.0;
    gp.load_budget = c.budget;
    util::Rng gen(seed);
    const auto sc = wlan::generate_scenario(gp, gen);

    DistributedParams p;
    p.objective = c.objective;
    p.mode = c.mode;
    p.multi_rate = c.multi_rate;
    util::Rng rng(seed * 31);
    const auto sol = distributed_associate(sc, rng, p);

    // Sequential mode always converges (Lemmas 1-2) and stays feasible.
    if (c.mode == UpdateMode::kSequential) {
      EXPECT_TRUE(sol.converged);
      const auto rep = wlan::compute_loads(sc, sol.assoc, c.multi_rate);
      EXPECT_TRUE(rep.budget_violations == 0);
    }
    // Either way the association only uses reachable APs (compute_loads
    // would throw) and the rounds counter is sane.
    EXPECT_NO_THROW(wlan::compute_loads(sc, sol.assoc, c.multi_rate));
    EXPECT_GE(sol.rounds, 1);
    EXPECT_LE(sol.rounds, p.max_rounds);
    // Served count never exceeds the coverable population.
    EXPECT_LE(sol.loads.satisfied_users, sc.n_coverable_users());
    // With a generous budget everyone coverable is served in sequential mode.
    if (c.mode == UpdateMode::kSequential && c.budget >= 0.9 && c.multi_rate) {
      EXPECT_EQ(sol.loads.satisfied_users, sc.n_coverable_users());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DistributedSweep,
    testing::Values(
        Combo{Objective::kTotalLoad, UpdateMode::kSequential, 0.9, true},
        Combo{Objective::kTotalLoad, UpdateMode::kSequential, 0.9, false},
        Combo{Objective::kTotalLoad, UpdateMode::kSequential, 0.1, true},
        Combo{Objective::kTotalLoad, UpdateMode::kSimultaneous, 0.9, true},
        Combo{Objective::kTotalLoad, UpdateMode::kSimultaneous, 0.1, true},
        Combo{Objective::kLoadVector, UpdateMode::kSequential, 0.9, true},
        Combo{Objective::kLoadVector, UpdateMode::kSequential, 0.9, false},
        Combo{Objective::kLoadVector, UpdateMode::kSequential, 0.1, true},
        Combo{Objective::kLoadVector, UpdateMode::kSimultaneous, 0.9, true},
        Combo{Objective::kLoadVector, UpdateMode::kSequential, 0.05, true}),
    combo_name);

}  // namespace
}  // namespace wmcast::assoc
