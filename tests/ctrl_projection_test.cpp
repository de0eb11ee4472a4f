// Persistent projection (DESIGN.md §17): the controller patches its compact
// scenario, row map, dirty region and load report in place each epoch
// instead of rebuilding them from the network state, and derives the
// repair's inputs (carry, dirty rows, over-budget set) and the commit's
// slot diff from the epoch's changed rows only. After every drain the
// patched projection must be field-for-field the cold NetworkState::
// to_scenario, the epoch's dirty region must match compute_dirty_slots,
// loads() must be bitwise wlan::compute_loads, and the committed
// association must equal a repair fed with inputs derived cold over the
// whole network — across every event kind, at any thread count and k.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/util/fp.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::ctrl {
namespace {

wlan::Scenario network(int n_aps, int n_users, double side, uint64_t seed,
                       double budget = 0.9) {
  wlan::GeneratorParams gp;
  gp.n_aps = n_aps;
  gp.n_users = n_users;
  gp.n_sessions = 4;
  gp.area_side_m = side;
  gp.load_budget = budget;
  util::Rng rng(seed);
  return wlan::generate_scenario(gp, rng);
}

void expect_same_loads(const wlan::LoadReport& a, const wlan::LoadReport& b,
                       int epoch) {
  EXPECT_EQ(a.ap_load, b.ap_load) << "epoch " << epoch;
  EXPECT_EQ(a.tx_rate, b.tx_rate) << "epoch " << epoch;
  EXPECT_EQ(a.total_load, b.total_load) << "epoch " << epoch;
  EXPECT_EQ(a.max_load, b.max_load) << "epoch " << epoch;
  EXPECT_EQ(a.satisfied_users, b.satisfied_users) << "epoch " << epoch;
  EXPECT_EQ(a.budget_violations, b.budget_violations) << "epoch " << epoch;
}

// The patched projection equals the cold one of the committed state.
void expect_cold_projection(const AssociationController& c, int epoch) {
  std::vector<int> rows;
  const wlan::Scenario cold = c.state().to_scenario(&rows);
  EXPECT_EQ(rows, c.row_slot()) << "epoch " << epoch;
  EXPECT_EQ(wlan::first_difference(c.scenario(), cold), "") << "epoch " << epoch;
}

// The committed association a repair fed with whole-network inputs would
// produce: the dirty region from compute_dirty_slots, a carry that re-checks
// every row's range, every AP's member list and the over-budget set from
// compute_loads of that carry, then the public repair_sharded — rerun on the
// rows left without an AP when the voluntary changes exceed the cap.
struct ColdRepair {
  std::vector<int> slot_ap;
  bool rolled_back = false;
};

ColdRepair cold_repair(const NetworkState& before, const std::vector<int>& before_ap,
                       const NetworkState& after, const ControllerConfig& cfg) {
  std::vector<int> rows;
  const wlan::Scenario sc = after.to_scenario(&rows);
  std::vector<char> dirty(static_cast<size_t>(after.n_slots()), 0);
  for (const int s : compute_dirty_slots(before, after, before_ap)) {
    dirty[static_cast<size_t>(s)] = 1;
  }
  auto carried = wlan::Association::none(sc.n_users());
  std::vector<int> dirty_rows;
  std::vector<int> forced_rows;
  for (int r = 0; r < sc.n_users(); ++r) {
    const int slot = rows[static_cast<size_t>(r)];
    const int old = static_cast<size_t>(slot) < before_ap.size()
                        ? before_ap[static_cast<size_t>(slot)]
                        : wlan::kNoAp;
    const bool valid = old != wlan::kNoAp && sc.in_range(old, r);
    if (valid) {
      carried.user_ap[static_cast<size_t>(r)] = old;
    } else {
      forced_rows.push_back(r);
    }
    if (dirty[static_cast<size_t>(slot)] || !valid) dirty_rows.push_back(r);
  }

  // Member lists over every row; repair_sharded builds the ones it reads
  // from the transpose, which must give the same lists in the same order.
  std::vector<std::vector<int>> members(static_cast<size_t>(sc.n_aps()));
  for (int r = 0; r < sc.n_users(); ++r) {
    const int a = carried.ap_of(r);
    if (a != wlan::kNoAp) members[static_cast<size_t>(a)].push_back(r);
  }
  const wlan::LoadReport loads = wlan::compute_loads(sc, carried, cfg.multi_rate);
  std::vector<int> over_budget;
  for (int a = 0; a < sc.n_aps(); ++a) {
    const auto& m = members[static_cast<size_t>(a)];
    std::vector<int> from_transpose;
    const wlan::IndexSpan heard = sc.users_of_ap(a);
    for (size_t i = 0; i < heard.size(); ++i) {
      if (carried.ap_of(heard[i]) == a) from_transpose.push_back(heard[i]);
    }
    EXPECT_EQ(from_transpose, m) << "ap " << a;
    EXPECT_EQ(wlan::ap_load_for_members(sc, a, m, cfg.multi_rate),
              loads.ap_load[static_cast<size_t>(a)])
        << "ap " << a;
    if (util::exceeds_budget(loads.ap_load[static_cast<size_t>(a)], sc.load_budget())) {
      over_budget.push_back(a);
    }
  }

  RepairShardParams rp;
  rp.enforce_budget = cfg.enforce_budget;
  rp.multi_rate = cfg.multi_rate;
  rp.polish_moves_per_dirty = cfg.polish_moves_per_dirty;
  rp.polish_min_gain = cfg.polish_min_gain;
  util::ThreadPool pool(1);
  RepairWorkspace ws;
  std::vector<int> user_ap = carried.user_ap;
  repair_sharded(sc, user_ap, dirty_rows, over_budget, rp, pool, ws);
  ColdRepair out;
  out.slot_ap = slot_association(wlan::Association{user_ap}, rows, after.n_slots());

  int voluntary = 0;
  for (int s = 0; s < after.n_slots(); ++s) {
    const int o = static_cast<size_t>(s) < before_ap.size()
                      ? before_ap[static_cast<size_t>(s)]
                      : wlan::kNoAp;
    if (o == wlan::kNoAp || o == out.slot_ap[static_cast<size_t>(s)]) continue;
    if (after.slot(s).wants_service() && after.link_rate(o, s) > 0.0) ++voluntary;
  }
  if (cfg.max_reassoc_per_epoch >= 0 && voluntary > cfg.max_reassoc_per_epoch) {
    out.rolled_back = true;
    user_ap = carried.user_ap;
    rp.polish = false;
    repair_sharded(sc, user_ap, forced_rows, over_budget, rp, pool, ws);
    out.slot_ap = slot_association(wlan::Association{user_ap}, rows, after.n_slots());
  }
  return out;
}

// One epoch of churn drawn from the controller's committed state, covering
// every edit the projection patch handles.
struct ChurnMix {
  int joins_reused = 0;
  int joins_extending = 0;
  int leaves = 0;
  int unsubscribes = 0;
  int resubscribes = 0;
  int zaps = 0;
  int out_of_coverage = 0;
  int rate_changes = 0;
};

std::vector<Event> churn_epoch(const NetworkState& st, double side, util::Rng& rng,
                               ChurnMix& mix) {
  std::vector<Event> batch;
  const auto anywhere = [&] {
    return wlan::Point{rng.uniform(0.0, side), rng.uniform(0.0, side)};
  };
  const int n = st.n_slots();
  for (int k = 0; k < 12; ++k) {
    const int s = rng.next_int(n);
    const UserSlot& slot = st.slot(s);
    if (std::any_of(batch.begin(), batch.end(), [&](const Event& e) { return e.user == s; })) {
      continue;  // one event per slot keeps every drawn event valid
    }
    const int session = rng.next_int(st.n_sessions());
    if (!slot.present) {
      batch.push_back(Event::join(s, anywhere(), session));
      ++mix.joins_reused;
      continue;
    }
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.35) {
      const wlan::Point p = slot.pos;
      batch.push_back(Event::move(
          s, {p.x + rng.uniform(-40.0, 40.0), p.y + rng.uniform(-40.0, 40.0)}));
    } else if (u < 0.45) {
      // Far outside every AP's range, or back in from there.
      const bool away = slot.pos.x < 0.0;
      batch.push_back(Event::move(s, away ? anywhere() : wlan::Point{-10 * side, -side}));
      if (!away) ++mix.out_of_coverage;
    } else if (u < 0.6) {
      batch.push_back(Event::leave(s));
      ++mix.leaves;
    } else if (u < 0.75) {
      batch.push_back(Event::subscribe(s, session));
      if (slot.subscribed) {
        ++mix.zaps;
      } else {
        ++mix.resubscribes;
      }
    } else if (slot.subscribed) {
      batch.push_back(Event::unsubscribe(s));
      ++mix.unsubscribes;
    }
  }
  // Joins that extend the slot space, one coalescing to nothing.
  const int extra = rng.next_int(3);
  for (int k = 0; k < extra; ++k) {
    batch.push_back(Event::join(n + k, anywhere(), rng.next_int(st.n_sessions())));
    ++mix.joins_extending;
  }
  if (extra > 0 && rng.next_bool(0.3)) batch.push_back(Event::leave(n + extra - 1));
  if (rng.next_bool(0.1)) {
    const int t = rng.next_int(st.n_sessions());
    batch.push_back(Event::rate_change(t, st.session_rate(t) * rng.uniform(0.7, 1.4)));
    ++mix.rate_changes;
  }
  return batch;
}

void run_sweep(int k, int threads) {
  const double side = 600.0;
  // A tight budget: the seed's full solve (MLA-C ignores budgets) commits
  // over-budget APs, so the first repair starts from a budget violation.
  const auto sc = network(25, 260, side, 601, /*budget=*/0.3);
  ControllerConfig cfg;
  cfg.k = k;
  cfg.threads = threads;
  // Small enough that some epochs roll back to the forced repair.
  cfg.max_reassoc_per_epoch = 1;
  // Admission refuses every seventh slot: rejected joins enter the slot space
  // present but unsubscribed, invisible to the projection.
  cfg.admission_hook = [](const JoinRequest& req, const std::vector<double>&,
                          const NetworkState&) { return req.slot % 7 != 3; };
  AssociationController c(sc, cfg);
  expect_cold_projection(c, 0);

  util::Rng rng(602);
  ChurnMix mix;
  int rejected = 0;
  int projected = 0;
  int compared = 0;
  int rollbacks = 0;
  int over_budget_starts = 0;
  for (int epoch = 1; epoch <= 60; ++epoch) {
    const NetworkState before = c.state();
    const std::vector<int> before_ap = c.slot_ap();
    const wlan::Scenario before_sc = c.scenario();
    const std::vector<int> before_rows = c.row_slot();
    if (c.loads().budget_violations > 0) ++over_budget_starts;
    const std::vector<Event> batch = churn_epoch(before, side, rng, mix);
    std::vector<int> touched;
    for (const Event& e : batch) {
      if (e.type != EventType::kRateChange) touched.push_back(e.user);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::vector<int> unserved;
    for (int s = 0; s < before.n_slots(); ++s) {
      if (before.slot(s).wants_service() && before_ap[static_cast<size_t>(s)] == wlan::kNoAp) {
        unserved.push_back(s);
      }
    }
    c.submit(batch);
    const EpochReport rep = c.drain();
    rejected += rep.rejected_joins;
    projected += rep.rows_projected;

    expect_cold_projection(c, epoch);
    const std::vector<int> dirty = compute_dirty_slots(before, c.state(), before_ap);
    EXPECT_EQ(rep.dirty_users, static_cast<int>(dirty.size())) << "epoch " << epoch;
    EXPECT_EQ(dirty_slots_from_delta(before, c.state(), before_ap, touched, unserved,
                                     before_sc, before_rows),
              dirty)
        << "epoch " << epoch;
    expect_same_loads(
        c.loads(),
        wlan::compute_loads(c.scenario(),
                            compact_association(c.slot_ap(), c.row_slot()), true),
        epoch);

    // The escalation ladder may replace the repair wholesale; every other
    // epoch commits exactly what the cold-input repair does.
    if (!rep.used_full_solve && !rep.warm_escalated) {
      const ColdRepair ref = cold_repair(before, before_ap, c.state(), cfg);
      EXPECT_EQ(rep.rolled_back, ref.rolled_back) << "epoch " << epoch;
      EXPECT_EQ(c.slot_ap(), ref.slot_ap) << "epoch " << epoch;
      ++compared;
      if (rep.rolled_back) ++rollbacks;
    }

    // The work counters name exactly the rows and APs the touched slots
    // reach: committed APs re-checked for range and re-folded (every AP on
    // a stream-rate change).
    int rechecked = 0;
    std::vector<int> refolded;
    for (const int s : touched) {
      const int o = static_cast<size_t>(s) < before_ap.size()
                        ? before_ap[static_cast<size_t>(s)]
                        : wlan::kNoAp;
      if (o == wlan::kNoAp) continue;
      refolded.push_back(o);
      if (c.state().slot(s).wants_service()) ++rechecked;
    }
    std::sort(refolded.begin(), refolded.end());
    refolded.erase(std::unique(refolded.begin(), refolded.end()), refolded.end());
    bool rate_changed = false;
    for (int t = 0; t < before.n_sessions(); ++t) {
      rate_changed |= before.session_rate(t) != c.state().session_rate(t);
    }
    EXPECT_EQ(rep.rows_rechecked, rechecked) << "epoch " << epoch;
    EXPECT_EQ(rep.aps_refolded,
              rate_changed ? c.scenario().n_aps() : static_cast<int>(refolded.size()))
        << "epoch " << epoch;
    if (::testing::Test::HasFailure()) return;
  }
  // The sweep exercised every edit kind, the rollback and a repair that
  // starts from a committed budget violation.
  EXPECT_GT(mix.joins_reused, 0);
  EXPECT_GT(mix.joins_extending, 0);
  EXPECT_GT(mix.leaves, 0);
  EXPECT_GT(mix.unsubscribes, 0);
  EXPECT_GT(mix.resubscribes, 0);
  EXPECT_GT(mix.zaps, 0);
  EXPECT_GT(mix.out_of_coverage, 0);
  EXPECT_GT(mix.rate_changes, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(projected, 0);
  EXPECT_GT(rollbacks, 0);
  EXPECT_LT(rollbacks, compared);
  EXPECT_GT(over_budget_starts, 0);
}

TEST(PersistentProjection, ChurnSweepMatchesColdK1Serial) { run_sweep(1, 1); }
TEST(PersistentProjection, ChurnSweepMatchesColdK1Threads4) { run_sweep(1, 4); }
TEST(PersistentProjection, ChurnSweepMatchesColdK2Serial) { run_sweep(2, 1); }
TEST(PersistentProjection, ChurnSweepMatchesColdK2Threads4) { run_sweep(2, 4); }

TEST(PersistentProjection, ConstructorProjectionIsCold) {
  const auto sc = network(20, 200, 500.0, 611);
  {
    // Same rate table: the seed scenario is reused as the projection.
    AssociationController c(sc);
    expect_cold_projection(c, 0);
    EXPECT_EQ(wlan::first_difference(c.scenario(), sc), "");
  }
  {
    // Different table: projected once, with the controller's table.
    ControllerConfig cfg;
    cfg.rate_table = wlan::RateTable::ieee80211a().scaled_range(1.3);
    AssociationController c(sc, cfg);
    expect_cold_projection(c, 0);
    ASSERT_NE(c.scenario().rate_table(), nullptr);
    EXPECT_TRUE(*c.scenario().rate_table() == cfg.rate_table);
    EXPECT_GT(c.scenario().n_links(), sc.n_links());
  }
}

// The projection is patched before repair, so a throw between the patch and
// the commit must leave it re-projected from the committed state. Here the
// full solver refuses the instance: single-session MNU on two sessions. It is
// first called once the seed's zero users have joined (no baseline yet). At
// k = 2 the overlay's row-space served-sets, spliced with the rows, are
// restored with the projection.
TEST(PersistentProjection, ThrowAfterPatchReprojectsCommittedState) {
  const wlan::Scenario empty = wlan::Scenario::from_geometry(
      {{0, 0}, {150, 0}}, {}, {}, {1.0, 1.0}, wlan::RateTable::ieee80211a());
  for (const int k : {1, 2}) {
    ControllerConfig cfg;
    cfg.full_solver = "mnu-1session";
    cfg.k = k;
    AssociationController c(empty, cfg);
    c.submit({Event::join(0, {10, 0}, 0), Event::join(1, {140, 0}, 1)});
    EXPECT_THROW(c.drain(), std::invalid_argument);
    EXPECT_EQ(c.state().n_slots(), 0) << "nothing was committed";
    EXPECT_EQ(c.scenario().n_users(), 0);
    EXPECT_EQ(c.multi_assoc().n_users(), k >= 2 ? c.scenario().n_users() : 0);
    expect_cold_projection(c, 1);
    EXPECT_EQ(c.drain().rows_projected, 0) << "a quiescent epoch after the throw";
    expect_cold_projection(c, 2);
  }
}

// rows_projected is a deterministic work counter: a moves-only epoch queries
// the AP grid for exactly its moved service-wanting rows, a quiescent epoch
// for none — an O(n) projection sneaking back fails on the count.
TEST(PersistentProjection, RowsProjectedCountsOnlyMovedRows) {
  const double side = 2800.0;
  const auto sc = network(400, 20000, side, 621);
  AssociationController c(sc);

  std::vector<Event> unsub;
  for (int s = 0; s < 20; ++s) unsub.push_back(Event::unsubscribe(s * 97));
  c.submit(unsub);
  EXPECT_EQ(c.drain().rows_projected, 0) << "unsubscribes only drop rows";

  util::Rng rng(622);
  std::vector<Event> moves;
  int wanting = 0;
  for (int k = 0; k < 60; ++k) {
    const int s = k * 331 + 5;
    const wlan::Point p = c.state().slot(s).pos;
    moves.push_back(Event::move(s, {p.x + 3.0, p.y - 2.0}));
    if (k % 3 == 0) moves.push_back(Event::move(s, {p.x + 1.0, p.y + 1.0}));
    if (c.state().slot(s).wants_service()) ++wanting;
  }
  // Moves of slots that do not want service touch no row.
  for (int s = 0; s < 5; ++s) moves.push_back(Event::move(s * 97, {1.0, 1.0}));
  c.submit(moves);
  EXPECT_EQ(c.drain().rows_projected, wanting);
  EXPECT_GT(wanting, 0);

  EXPECT_EQ(c.drain().rows_projected, 0) << "a quiescent epoch queries nothing";
  expect_cold_projection(c, 3);
}

// rows_rechecked and aps_refolded are deterministic work counters for the
// repair's inputs: a quiescent epoch re-checks and re-folds nothing, and a
// single move re-checks at most the mover's row and re-folds at most its old
// AP — bounded by the heard-set, whatever the network size. A carry or an
// over-budget scan over every row would fail on the count.
TEST(PersistentProjection, RepairInputsScaleWithTheDelta) {
  const auto sc = network(400, 20000, 2800.0, 631);
  AssociationController c(sc);

  const EpochReport quiet = c.drain();
  EXPECT_EQ(quiet.rows_rechecked, 0);
  EXPECT_EQ(quiet.aps_refolded, 0);

  int mover = -1;
  for (int s = 0; s < c.state().n_slots() && mover < 0; ++s) {
    if (c.slot_ap()[static_cast<size_t>(s)] != wlan::kNoAp) mover = s;
  }
  ASSERT_GE(mover, 0);
  const wlan::Point p = c.state().slot(mover).pos;
  c.submit(Event::move(mover, {p.x + 30.0, p.y + 20.0}));
  const EpochReport moved = c.drain();
  const auto row = static_cast<int>(
      std::lower_bound(c.row_slot().begin(), c.row_slot().end(), mover) -
      c.row_slot().begin());
  const auto heard = static_cast<int>(c.scenario().aps_of_user(row).size());
  EXPECT_EQ(moved.rows_rechecked, 1);
  EXPECT_EQ(moved.aps_refolded, 1);
  EXPECT_LE(moved.rows_rechecked, heard);
  EXPECT_LE(moved.aps_refolded, heard);

  const EpochReport quiet_again = c.drain();
  EXPECT_EQ(quiet_again.rows_rechecked, 0);
  EXPECT_EQ(quiet_again.aps_refolded, 0);
}

}  // namespace
}  // namespace wmcast::ctrl
