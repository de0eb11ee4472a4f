#include "wmcast/sim/handoff.hpp"

#include <gtest/gtest.h>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::sim {
namespace {

using wlan::Association;
using wlan::kNoAp;

/// Carries a slot-space association onto the projection `row_slot` of the
/// churned state `st`: a user keeps its AP while that AP is still in range,
/// else it must re-associate (the carry bench/dynamics_churn runs).
Association carry(const ctrl::NetworkState& st, const std::vector<int>& row_slot,
                  const std::vector<int>& slot_ap) {
  Association out = Association::none(static_cast<int>(row_slot.size()));
  for (size_t r = 0; r < row_slot.size(); ++r) {
    const int s = row_slot[r];
    const int old =
        s < static_cast<int>(slot_ap.size()) ? slot_ap[static_cast<size_t>(s)] : kNoAp;
    if (old != kNoAp && st.link_rate(old, s) > 0.0) out.user_ap[r] = old;
  }
  return out;
}

TEST(Handoff, CountsTransitionsByKind) {
  const std::vector<Association> snaps = {
      Association{{kNoAp, 0, 1}},  // start
      Association{{0, 1, 1}},      // u0 joins, u1 hands off, u2 stays
      Association{{0, kNoAp, 0}},  // u1 drops, u2 hands off
  };
  HandoffModel m;
  m.handoff_interruption_s = 0.3;
  m.rejoin_interruption_s = 1.0;
  const auto rep = account_disruptions(snaps, m);
  EXPECT_EQ(rep.joins, 1);
  EXPECT_EQ(rep.handoffs, 2);
  EXPECT_EQ(rep.drops, 1);
  EXPECT_NEAR(rep.total_disruption_s, 1.0 + 0.3 + 1.0 + 0.3, 1e-12);
  // u1: one handoff + one drop = 1.3 s, the worst-hit user.
  EXPECT_NEAR(rep.worst_user_disruption_s, 1.3, 1e-12);
  EXPECT_NEAR(rep.per_user_s[1], 1.3, 1e-12);
}

TEST(Handoff, StableSequencesCostNothing) {
  const Association a{{0, 1, kNoAp}};
  const auto rep = account_disruptions({a, a, a});
  EXPECT_EQ(rep.handoffs + rep.joins + rep.drops, 0);
  EXPECT_DOUBLE_EQ(rep.total_disruption_s, 0.0);
}

TEST(Handoff, FewerThanTwoSnapshotsIsEmpty) {
  EXPECT_DOUBLE_EQ(account_disruptions({}).total_disruption_s, 0.0);
  EXPECT_DOUBLE_EQ(account_disruptions({Association{{0}}}).total_disruption_s, 0.0);
}

TEST(Handoff, MismatchedSnapshotsThrow) {
  EXPECT_THROW(account_disruptions({Association{{0}}, Association{{0, 1}}}),
               std::invalid_argument);
  HandoffModel bad;
  bad.handoff_interruption_s = -1.0;
  EXPECT_THROW(account_disruptions({Association{{0}}, Association{{0}}}, bad),
               std::invalid_argument);
}

TEST(Handoff, WarmDistributedDisruptsLessThanColdCentralized) {
  // The §1 signaling argument as a user-experience number: across churn
  // epochs, warm distributed resumes disrupt streams less than cold
  // centralized re-solves.
  util::Rng rng(229);
  wlan::GeneratorParams p;
  p.n_aps = 40;
  p.n_users = 120;
  const auto sc0 = wlan::generate_scenario(p, rng);
  auto state = ctrl::NetworkState::from_scenario(sc0);
  ctrl::TraceParams tp;
  tp.epochs = 6;
  tp.move_fraction = 0.08;
  tp.zap_fraction = 0.04;
  const auto trace = ctrl::generate_churn_trace(state, tp, rng);

  util::Rng wrng(1);
  std::vector<Association> warm_snaps{assoc::distributed_mla(sc0, wrng).assoc};
  std::vector<Association> cold_snaps{assoc::centralized_mla(sc0).assoc};
  for (const auto& epoch : trace.epochs) {
    for (const auto& ev : epoch) state.apply(ev);
    std::vector<int> row_slot;
    const auto sc = state.to_scenario(&row_slot);
    assoc::DistributedParams dp;
    dp.initial = carry(state, row_slot, warm_snaps.back().user_ap);
    util::Rng r = rng.fork();
    const auto warm = assoc::distributed_associate(sc, r, dp);
    const auto cold = assoc::centralized_mla(sc);
    warm_snaps.push_back(
        Association{ctrl::slot_association(warm.assoc, row_slot, state.n_slots())});
    cold_snaps.push_back(
        Association{ctrl::slot_association(cold.assoc, row_slot, state.n_slots())});
  }
  const auto warm_rep = account_disruptions(warm_snaps);
  const auto cold_rep = account_disruptions(cold_snaps);
  EXPECT_LT(warm_rep.total_disruption_s, cold_rep.total_disruption_s);
}

TEST(CarryOver, ResumedEngineConvergesFasterThanColdStart) {
  // The incremental regime the paper argues for (§3.1): after mild churn,
  // resuming from the carried association touches far fewer users than
  // starting over.
  wlan::GeneratorParams p;
  p.n_aps = 25;
  p.n_users = 80;
  p.n_sessions = 4;
  p.area_side_m = 500.0;
  util::Rng rng(10);
  const auto sc0 = wlan::generate_scenario(p, rng);
  util::Rng arng(11);
  const auto sol = assoc::distributed_mla(sc0, arng);

  auto state = ctrl::NetworkState::from_scenario(sc0);
  ctrl::TraceParams tp;
  tp.epochs = 1;
  tp.move_fraction = 0.05;
  tp.zap_fraction = 0.05;
  util::Rng trng(12);
  const auto trace = ctrl::generate_churn_trace(state, tp, trng);
  for (const auto& ev : trace.epochs[0]) state.apply(ev);
  std::vector<int> row_slot;
  const auto next = state.to_scenario(&row_slot);
  const auto carried = carry(state, row_slot, sol.assoc.user_ap);

  assoc::DistributedParams warm;
  warm.initial = carried;
  warm.order = util::iota_permutation(next.n_users());
  util::Rng r1(13);
  const auto resumed = assoc::distributed_associate(next, r1, warm);
  EXPECT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.loads.satisfied_users, next.n_coverable_users());

  // Count how many users hold a different AP than in the carried state —
  // the "signaling traffic" a warm start saves.
  int changed = 0;
  for (int u = 0; u < next.n_users(); ++u) {
    if (resumed.assoc.ap_of(u) != carried.ap_of(u)) ++changed;
  }
  EXPECT_LT(changed, next.n_users() / 2);
}

}  // namespace
}  // namespace wmcast::sim
