// CoverageEngine unit tests: the flat engine must represent exactly the same
// set system the paper's reduction builds, and its dirty-group update
// protocol must be indistinguishable from rebuilding from scratch — across
// retires, universe growth, and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/engine_source.hpp"
#include "wmcast/ctrl/events.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast {
namespace {

wlan::Scenario small_scenario(uint64_t seed, int n_aps = 8, int n_users = 30) {
  wlan::GeneratorParams p;
  p.n_aps = n_aps;
  p.n_users = n_users;
  p.n_sessions = 3;
  p.area_side_m = 400.0;
  util::Rng rng(seed);
  return wlan::generate_scenario(p, rng);
}

/// The reference slot-space source: offers every slot to every AP with its
/// NetworkState::link_rate and lets the engine drop the out-of-range ones —
/// O(APs × slots) per build. The controller's ctrl::StateSource reads only
/// the projection's transpose and must build the same set system.
class SlotScanSource {
 public:
  explicit SlotScanSource(const ctrl::NetworkState& st) : st_(&st) {}

  int n_elements() const { return st_->n_slots(); }
  int n_groups() const { return st_->n_aps(); }
  int n_sessions() const { return st_->n_sessions(); }
  double session_rate(int s) const { return st_->session_rate(s); }
  int element_session(int e) const { return st_->slot(e).session; }
  bool element_active(int e) const { return st_->slot(e).wants_service(); }
  double basic_rate() const { return st_->rate_table().basic_rate(); }

  template <typename Fn>
  void for_each_link_of_group(int g, Fn&& fn) const {
    for (int s = 0; s < st_->n_slots(); ++s) fn(s, st_->link_rate(g, s));
  }

 private:
  const ctrl::NetworkState* st_;
};

/// Canonical order-free snapshot of the live sets: ids and member order are
/// representation details, the multiset of (group, session, tx_rate, cost,
/// sorted members) is the semantics.
using CanonicalSet = std::tuple<int, int, double, double, std::vector<int>>;

std::vector<CanonicalSet> canonical(const core::CoverageEngine& eng) {
  std::vector<CanonicalSet> out;
  for (int j = 0; j < eng.n_set_slots(); ++j) {
    if (!eng.alive(j)) continue;
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    out.emplace_back(eng.group(j), eng.session(j), eng.tx_rate(j), eng.cost(j),
                     std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CoverageEngine, ToEngineMirrorsSetSystem) {
  const auto sc = small_scenario(11);
  const auto sys = setcover::build_set_system(sc);
  const auto eng = setcover::to_engine(sys);

  ASSERT_EQ(eng.n_set_slots(), sys.n_sets());
  ASSERT_EQ(eng.n_live_sets(), sys.n_sets());
  ASSERT_EQ(eng.n_elements(), sys.n_elements());
  ASSERT_EQ(eng.n_groups(), sys.n_groups());
  for (int j = 0; j < sys.n_sets(); ++j) {
    const auto& s = sys.set(j);
    EXPECT_TRUE(eng.alive(j));
    EXPECT_EQ(eng.group(j), s.group);
    EXPECT_EQ(eng.session(j), s.session);
    EXPECT_EQ(eng.tx_rate(j), s.tx_rate);
    EXPECT_EQ(eng.cost(j), s.cost);
    std::vector<int> members(eng.members(j).begin(), eng.members(j).end());
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, s.members.to_indices());
  }
  EXPECT_EQ(eng.coverable(), sys.coverable());
  EXPECT_EQ(eng.max_set_cost(), sys.max_set_cost());
  EXPECT_EQ(eng.min_feasible_budget(), sys.min_feasible_budget());
}

TEST(CoverageEngine, BuildFullMatchesReductionThroughSetSystem) {
  for (uint64_t seed : {3u, 7u, 19u}) {
    const auto sc = small_scenario(seed);
    const auto via_sys = setcover::to_engine(setcover::build_set_system(sc));
    const auto direct = setcover::build_engine(sc);
    EXPECT_EQ(canonical(direct), canonical(via_sys)) << "seed " << seed;
    EXPECT_EQ(direct.coverable(), via_sys.coverable());
  }
}

TEST(CoverageEngine, InvertedIndexListsExactlyContainingSets) {
  const auto sc = small_scenario(23);
  const auto eng = setcover::build_engine(sc);
  for (int e = 0; e < eng.n_elements(); ++e) {
    std::vector<int> via_index;
    eng.for_each_set_of(e, [&](int j) { via_index.push_back(j); });
    std::sort(via_index.begin(), via_index.end());
    std::vector<int> via_scan;
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      if (!eng.alive(j)) continue;
      const auto m = eng.members(j);
      if (std::find(m.begin(), m.end(), e) != m.end()) via_scan.push_back(j);
    }
    EXPECT_EQ(via_index, via_scan) << "element " << e;
  }
}

TEST(CoverageEngine, UpdateGroupsEqualsFreshRebuild) {
  const auto sc = small_scenario(31, 10, 40);
  auto state = ctrl::NetworkState::from_scenario(sc);
  util::Rng rng(5);

  core::CoverageEngine incremental;
  incremental.build_full(SlotScanSource(state), true);

  for (int round = 0; round < 6; ++round) {
    const ctrl::NetworkState before = state;
    // A burst of churn: moves, zaps, a leave — whatever the rng picks.
    for (int k = 0; k < 5; ++k) {
      const int u = rng.next_int(state.n_slots());
      if (!state.slot(u).present) continue;
      switch (rng.next_int(3)) {
        case 0:
          state.apply(ctrl::Event::move(
              u, {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)}));
          break;
        case 1:
          state.apply(ctrl::Event::subscribe(u, rng.next_int(state.n_sessions())));
          break;
        default:
          state.apply(ctrl::Event::unsubscribe(u));
          break;
      }
    }
    // Dirty groups: any AP in range of a changed slot, before or after.
    std::vector<int> dirty;
    for (int a = 0; a < state.n_aps(); ++a) {
      for (int s = 0; s < state.n_slots(); ++s) {
        if (before.slot(s) == state.slot(s)) continue;
        if (before.link_rate(a, s) > 0.0 || state.link_rate(a, s) > 0.0) {
          dirty.push_back(a);
          break;
        }
      }
    }
    incremental.update_groups(SlotScanSource(state), dirty, true);

    core::CoverageEngine fresh;
    fresh.build_full(SlotScanSource(state), true);
    ASSERT_EQ(canonical(incremental), canonical(fresh)) << "round " << round;
    ASSERT_EQ(incremental.coverable(), fresh.coverable()) << "round " << round;
    EXPECT_EQ(incremental.max_set_cost(), fresh.max_set_cost());
    EXPECT_EQ(incremental.min_feasible_budget(), fresh.min_feasible_budget());
  }
  EXPECT_EQ(incremental.stats().full_builds, 1u);
  EXPECT_EQ(incremental.stats().incremental_updates, 6u);
  EXPECT_GT(incremental.stats().groups_rebuilt, 0u);
}

TEST(CoverageEngine, UpdateGrowsUniverseOnJoins) {
  const auto sc = small_scenario(41);
  auto state = ctrl::NetworkState::from_scenario(sc);
  core::CoverageEngine eng;
  eng.build_full(SlotScanSource(state), true);
  const int old_n = eng.n_elements();

  // New user joins in the middle of the area: slot space extends.
  state.apply(ctrl::Event::join(state.n_slots(), {200.0, 200.0}, 0));
  std::vector<int> dirty;
  const int slot = state.n_slots() - 1;
  for (int a = 0; a < state.n_aps(); ++a) {
    if (state.link_rate(a, slot) > 0.0) dirty.push_back(a);
  }
  ASSERT_FALSE(dirty.empty());
  eng.update_groups(SlotScanSource(state), dirty, true);

  EXPECT_EQ(eng.n_elements(), old_n + 1);
  EXPECT_TRUE(eng.coverable().test(slot));
  core::CoverageEngine fresh;
  fresh.build_full(SlotScanSource(state), true);
  EXPECT_EQ(canonical(eng), canonical(fresh));

  // The overflow inverted index covers the new element too.
  int containing = 0;
  eng.for_each_set_of(slot, [&](int) { ++containing; });
  EXPECT_GT(containing, 0);
}

TEST(CoverageEngine, CompactionPreservesSemantics) {
  const auto sc = small_scenario(53, 6, 24);
  auto state = ctrl::NetworkState::from_scenario(sc);
  core::CoverageEngine eng;
  eng.build_full(SlotScanSource(state), true);

  // Rebuild every group many times: tombstones pile up until compaction.
  std::vector<int> all_groups;
  for (int a = 0; a < state.n_aps(); ++a) all_groups.push_back(a);
  for (int i = 0; i < 8; ++i) {
    eng.update_groups(SlotScanSource(state), all_groups, true);
  }
  EXPECT_GT(eng.stats().compactions, 0u);

  core::CoverageEngine fresh;
  fresh.build_full(SlotScanSource(state), true);
  EXPECT_EQ(canonical(eng), canonical(fresh));

  // Explicit compaction is idempotent on a clean engine.
  eng.compact();
  EXPECT_EQ(canonical(eng), canonical(fresh));
  EXPECT_EQ(eng.n_set_slots(), eng.n_live_sets());
}

TEST(CoverageEngine, WarmWorkspaceSolvesAreIdentical) {
  const auto sc = small_scenario(61, 12, 50);
  auto eng = setcover::build_engine(sc);
  core::SolveWorkspace ws;
  const auto first = core::greedy_cover(eng, ws);
  const auto second = core::greedy_cover(eng, ws);
  EXPECT_EQ(first.chosen, second.chosen);
  EXPECT_EQ(first.total_cost, second.total_cost);
  EXPECT_EQ(first.covered, second.covered);

  const auto scg1 = core::scg_cover(eng, ws);
  const auto scg2 = core::scg_cover(eng, ws);
  EXPECT_EQ(scg1.chosen, scg2.chosen);
  EXPECT_EQ(scg1.bstar, scg2.bstar);
}

/// Set-for-set equality by id: the same live sets with the same member order
/// and bitwise the same rates and costs.
void expect_identical(const core::CoverageEngine& a, const core::CoverageEngine& b) {
  ASSERT_EQ(a.n_set_slots(), b.n_set_slots());
  ASSERT_EQ(a.n_elements(), b.n_elements());
  for (int j = 0; j < a.n_set_slots(); ++j) {
    ASSERT_EQ(a.alive(j), b.alive(j)) << "set " << j;
    EXPECT_EQ(a.group(j), b.group(j)) << "set " << j;
    EXPECT_EQ(a.session(j), b.session(j)) << "set " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.tx_rate(j)), std::bit_cast<uint64_t>(b.tx_rate(j)))
        << "set " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.cost(j)), std::bit_cast<uint64_t>(b.cost(j)))
        << "set " << j;
    EXPECT_TRUE(std::ranges::equal(a.members(j), b.members(j))) << "set " << j;
  }
  EXPECT_EQ(a.coverable(), b.coverable());
}

// One epoch of churn drawn from the committed state: moves (some out of
// every AP's range), zaps, leaves, unsubscribes, re-subscribes, joins that
// reuse a departed slot and joins that extend the slot space, and now and
// then a stream-rate change.
std::vector<ctrl::Event> churn_epoch(const ctrl::NetworkState& st, double side,
                                     util::Rng& rng) {
  std::vector<ctrl::Event> batch;
  std::vector<char> used(static_cast<size_t>(st.n_slots()), 0);
  const auto anywhere = [&] {
    return wlan::Point{rng.uniform(0.0, side), rng.uniform(0.0, side)};
  };
  for (int k = 0; k < 10; ++k) {
    const int s = rng.next_int(st.n_slots());
    if (used[static_cast<size_t>(s)]) continue;  // one event per slot
    used[static_cast<size_t>(s)] = 1;
    const ctrl::UserSlot& slot = st.slot(s);
    const int session = rng.next_int(st.n_sessions());
    if (!slot.present) {
      batch.push_back(ctrl::Event::join(s, anywhere(), session));
      continue;
    }
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.3) {
      batch.push_back(ctrl::Event::move(s, anywhere()));
    } else if (u < 0.4) {
      batch.push_back(ctrl::Event::move(s, {-10.0 * side, -side}));
    } else if (u < 0.55) {
      batch.push_back(ctrl::Event::leave(s));
    } else if (u < 0.75) {
      batch.push_back(ctrl::Event::subscribe(s, session));
    } else {
      batch.push_back(ctrl::Event::unsubscribe(s));
    }
  }
  const int extra = rng.next_int(3);
  for (int k = 0; k < extra; ++k) {
    batch.push_back(
        ctrl::Event::join(st.n_slots() + k, anywhere(), rng.next_int(st.n_sessions())));
  }
  if (rng.next_bool(0.1)) {
    const int t = rng.next_int(st.n_sessions());
    batch.push_back(ctrl::Event::rate_change(t, st.session_rate(t) * rng.uniform(0.7, 1.4)));
  }
  return batch;
}

// The projection's transpose and the every-slot scan build the same system
// set for set — ids, member order, rate and cost bits — including over
// inactive slots and slots out of every AP's range.
TEST(CoverageEngine, ProjectionSourceBuildsTheScanSystem) {
  const double side = 400.0;
  const auto sc = small_scenario(71, 10, 60);
  auto state = ctrl::NetworkState::from_scenario(sc);
  util::Rng rng(72);
  for (int e = 0; e < 8; ++e) {
    for (const auto& ev : churn_epoch(state, side, rng)) state.apply(ev);
  }
  std::vector<int> rows;
  const auto projection = state.to_scenario(&rows);
  ASSERT_LT(static_cast<int>(rows.size()), state.n_slots()) << "some slots are inactive";
  for (const bool multi_rate : {true, false}) {
    core::CoverageEngine via_transpose;
    via_transpose.build_full(ctrl::StateSource(state, projection, rows), multi_rate);
    core::CoverageEngine via_scan;
    via_scan.build_full(SlotScanSource(state), multi_rate);
    expect_identical(via_transpose, via_scan);
    EXPECT_EQ(via_transpose.stats().links_offered,
              static_cast<uint64_t>(projection.n_links()));
    EXPECT_EQ(via_scan.stats().links_offered,
              static_cast<uint64_t>(state.n_aps()) * static_cast<uint64_t>(state.n_slots()));
  }
}

// Single-rate sets are priced at the rate table's basic rate, not at the
// projection's lowest occurring rate: here every link runs well above the
// basic rate.
TEST(CoverageEngine, ProjectionSourcePricesSingleRateSetsAtTheTableBasicRate) {
  const auto table = wlan::RateTable::ieee80211a();
  const auto sc = wlan::Scenario::from_geometry({{0, 0}, {2000, 0}}, {{10, 0}, {0, 20}, {5, 5}},
                                                {0, 1, 0}, {1.0, 2.0}, table);
  const auto state = ctrl::NetworkState::from_scenario(sc);
  std::vector<int> rows;
  const auto projection = state.to_scenario(&rows);
  ASSERT_GT(projection.basic_rate(), table.basic_rate());
  core::CoverageEngine via_transpose;
  via_transpose.build_full(ctrl::StateSource(state, projection, rows), false);
  core::CoverageEngine via_scan;
  via_scan.build_full(SlotScanSource(state), false);
  expect_identical(via_transpose, via_scan);
  for (int j = 0; j < via_transpose.n_set_slots(); ++j) {
    EXPECT_EQ(via_transpose.tx_rate(j), table.basic_rate());
  }
}

// The controller builds its engine from the projection and flushes it after
// patching the projection. With a full refresh every epoch, every epoch
// flushes; after each one the engine must hold exactly the system a fresh
// every-slot scan of the committed state builds.
void run_engine_sweep(bool multi_rate) {
  const double side = 400.0;
  ctrl::ControllerConfig cfg;
  cfg.multi_rate = multi_rate;
  cfg.full_refresh_epochs = 1;
  ctrl::AssociationController c(small_scenario(81, 16, 150), cfg);
  util::Rng rng(82);
  int flushes = 0;
  for (int epoch = 0; epoch <= 60; ++epoch) {
    if (epoch > 0) {
      c.submit(churn_epoch(c.state(), side, rng));
      if (c.drain().engine_groups_rebuilt > 0) ++flushes;
    }
    core::CoverageEngine fresh;
    fresh.build_full(SlotScanSource(c.state()), multi_rate);
    ASSERT_EQ(canonical(c.engine()), canonical(fresh)) << "epoch " << epoch;
    ASSERT_EQ(c.engine().coverable(), fresh.coverable()) << "epoch " << epoch;
  }
  EXPECT_EQ(flushes, 60);
}

TEST(CoverageEngine, ControllerEngineMatchesScanEveryEpochMultiRate) {
  run_engine_sweep(true);
}
TEST(CoverageEngine, ControllerEngineMatchesScanEveryEpochBasicRate) {
  run_engine_sweep(false);
}

// links_offered is a deterministic work counter for engine builds: the
// controller's construction offers exactly the projection's links, and a
// flush exactly the links of the groups it rebuilds. An every-slot scan
// (APs × slots) fails on the count.
TEST(CoverageEngine, LinksOfferedFollowTheTranspose) {
  wlan::GeneratorParams p;
  p.n_aps = 400;
  p.n_users = 20000;
  p.n_sessions = 4;
  p.area_side_m = 2800.0;
  util::Rng gen(91);
  ctrl::ControllerConfig cfg;
  cfg.full_refresh_epochs = 1;
  ctrl::AssociationController c(wlan::generate_scenario(p, gen), cfg);
  EXPECT_EQ(c.engine().stats().links_offered,
            static_cast<uint64_t>(c.scenario().n_links()));

  // A handful of moves: the flushed groups are the movers' old APs (sets
  // holding them) and every AP in range of their new positions.
  util::Rng rng(92);
  std::vector<ctrl::Event> moves;
  std::vector<int> groups;
  for (int k = 0; k < 8; ++k) {
    const int s = k * 2311 + 7;
    const wlan::Point to{rng.uniform(0.0, 2800.0), rng.uniform(0.0, 2800.0)};
    moves.push_back(ctrl::Event::move(s, to));
    c.engine().for_each_set_of(s, [&](int j) { groups.push_back(c.engine().group(j)); });
    ctrl::NetworkState moved = c.state();
    moved.apply(moves.back());
    for (int a = 0; a < moved.n_aps(); ++a) {
      if (moved.link_rate(a, s) > 0.0) groups.push_back(a);
    }
  }
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  const uint64_t before = c.engine().stats().links_offered;
  c.submit(moves);
  const auto rep = c.drain();
  EXPECT_EQ(rep.engine_groups_rebuilt, static_cast<int>(groups.size()));
  uint64_t links = 0;
  for (const int a : groups) links += c.scenario().users_of_ap(a).size();
  EXPECT_EQ(c.engine().stats().links_offered - before, links);
  EXPECT_LT(links, static_cast<uint64_t>(c.scenario().n_links()));

  // A stream-rate change reprices every set: every group is flushed.
  const uint64_t before_rate = c.engine().stats().links_offered;
  c.submit(ctrl::Event::rate_change(0, 2.0 * c.state().session_rate(0)));
  c.drain();
  EXPECT_EQ(c.engine().stats().links_offered - before_rate,
            static_cast<uint64_t>(c.scenario().n_links()));
}

}  // namespace
}  // namespace wmcast
