#include "wmcast/ctrl/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include "wmcast/assoc/local_search.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/ctrl/engine_source.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast::ctrl {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// compute_loads' fold for one AP under `user_ap`: bottleneck member rate per
/// session, then the session loads in session order. Writes the per-session
/// transmission rates to `tx` when given.
double fold_ap_load(const wlan::Scenario& sc, const std::vector<int>& user_ap, int a,
                    bool multi_rate, std::vector<double>& min_rate, double* tx) {
  min_rate.assign(static_cast<size_t>(sc.n_sessions()),
                  std::numeric_limits<double>::infinity());
  const wlan::IndexSpan rows = sc.users_of_ap(a);
  const double* rates = sc.rates_of_ap(a);
  for (size_t m = 0; m < rows.size(); ++m) {
    if (user_ap[static_cast<size_t>(rows[m])] != a) continue;
    double& mr = min_rate[static_cast<size_t>(sc.user_session(rows[m]))];
    mr = std::min(mr, rates[m]);
  }
  double load = 0.0;
  for (int s = 0; s < sc.n_sessions(); ++s) {
    const double mr = min_rate[static_cast<size_t>(s)];
    if (tx != nullptr) tx[s] = 0.0;
    if (mr == std::numeric_limits<double>::infinity()) continue;
    const double rate = multi_rate ? mr : sc.basic_rate();
    if (tx != nullptr) tx[s] = rate;
    load += sc.session_rate(s) / rate;
  }
  return load;
}

/// Ascending union of two ascending lists.
std::vector<int> merge_unique(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace

AssociationController::AssociationController(const wlan::Scenario& initial,
                                             ControllerConfig cfg)
    : cfg_(std::move(cfg)),
      state_(NetworkState::from_scenario(initial, cfg_.rate_table)),
      // Every seeded slot wants service, so `initial` already is the
      // projection whenever it was built with the controller's rate table.
      compact_sc_(initial.rate_table() != nullptr && *initial.rate_table() == cfg_.rate_table
                      ? initial
                      : state_.to_scenario()),
      rng_(cfg_.seed),
      pool_(util::ThreadPool::resolve_threads(cfg_.threads)) {
  util::require(assoc::is_algorithm(cfg_.full_solver),
                "AssociationController: unknown full solver '" + cfg_.full_solver + "'");
  util::require(cfg_.degradation_threshold >= 0.0,
                "AssociationController: negative degradation threshold");
  row_slot_.resize(static_cast<size_t>(state_.n_slots()));
  std::iota(row_slot_.begin(), row_slot_.end(), 0);
  EpochReport seed;
  engine_.build_full(StateSource(state_, compact_sc_, row_slot_), cfg_.multi_rate);
  sync_engine_stats(seed);
  const auto sol = solve_full(compact_sc_, row_slot_, seed);
  row_assoc_ = sol.assoc;
  slot_ap_ = slot_association(sol.assoc, row_slot_, state_.n_slots());
  for (int s = 0; s < state_.n_slots(); ++s) {
    if (slot_ap_[static_cast<size_t>(s)] == wlan::kNoAp) unserved_.push_back(s);
  }
  loads_ = sol.loads;
  baseline_load_ = sol.loads.total_load;
  seed.baseline_refreshed = true;
  util::require(cfg_.k >= 1, "AssociationController: k must be >= 1");
  refresh_multi(seed);
  report_state(seed);
  tele_.record(seed, /*drained=*/false);
}

void AssociationController::report_state(EpochReport& rep) const {
  rep.users_present = state_.n_present();
  rep.users_subscribed = state_.n_active();
  rep.users_served = loads_.satisfied_users;
  rep.total_load = loads_.total_load;
  rep.max_load = loads_.max_load;
  rep.baseline_load = baseline_load_;
  rep.queue_depth = static_cast<int>(queue_.size());
}

void AssociationController::kconn_mark_dirty(const NetworkState& next,
                                             const std::vector<int>& new_slot_ap,
                                             const std::vector<int>& changed) {
  if (cfg_.k < 2) return;
  // Clear the previous epoch's marks (O(previous dirt), never O(network)).
  for (const int a : kconn_dirty_aps_) kconn_ap_mark_[static_cast<size_t>(a)] = 0;
  kconn_dirty_aps_.clear();
  for (const int s : kconn_dirty_slots_) kconn_slot_mark_[static_cast<size_t>(s)] = 0;
  kconn_dirty_slots_.clear();
  kconn_settle_hint_.clear();
  for (const int a : kconn_rescan_aps_) kconn_rescan_mark_[static_cast<size_t>(a)] = 0;
  kconn_rescan_aps_.clear();
  kconn_rate_changed_ = false;
  if (!multi_valid_) return;  // nothing to repair; the first derivation is cold

  for (int t = 0; t < next.n_sessions(); ++t) {
    if (t >= state_.n_sessions() || next.session_rate(t) != state_.session_rate(t)) {
      // Stream rates feed every plan row's budget estimate and every load
      // fold; no local region bounds the effect. Rebuild cold.
      kconn_rate_changed_ = true;
      return;
    }
  }

  if (kconn_ap_mark_.size() < static_cast<size_t>(next.n_aps())) {
    kconn_ap_mark_.resize(static_cast<size_t>(next.n_aps()), 0);
  }
  if (kconn_slot_mark_.size() < static_cast<size_t>(next.n_slots())) {
    kconn_slot_mark_.resize(static_cast<size_t>(next.n_slots()), 0);
  }
  if (kconn_rescan_mark_.size() < static_cast<size_t>(next.n_aps())) {
    kconn_rescan_mark_.resize(static_cast<size_t>(next.n_aps()), 0);
  }
  const auto mark_ap = [&](int a) {
    if (!kconn_ap_mark_[static_cast<size_t>(a)]) {
      kconn_ap_mark_[static_cast<size_t>(a)] = 1;
      kconn_dirty_aps_.push_back(a);
    }
  };
  const auto mark_slot = [&](int s) {
    if (!kconn_slot_mark_[static_cast<size_t>(s)]) {
      kconn_slot_mark_[static_cast<size_t>(s)] = 1;
      kconn_dirty_slots_.push_back(s);
    }
  };

  // Persistent pmin maintenance (kconn_plan_.pmin/pcount are valid here
  // because multi_valid_ holds and session/AP counts are epoch-stable). A
  // hearer ARRIVING in the (a, session) adopter pool can only lower the min —
  // an exact O(1) fold. A hearer DEPARTING can only raise it, and only if it
  // was the LAST member sitting at the min (802.11 rates are coarsely
  // quantized, so the min is usually shared — pcount tracks the tie), in
  // which case the row is queued for a full rescan at refresh time (after
  // commit, against the new projection). Everything else is an O(1) no-op.
  // This is what lets the incremental path re-plan a dirty AP in O(sessions)
  // instead of re-scanning its ~membership-sized CSR row.
  const auto mark_rescan = [&](int a) {
    if (!kconn_rescan_mark_[static_cast<size_t>(a)]) {
      kconn_rescan_mark_[static_cast<size_t>(a)] = 1;
      kconn_rescan_aps_.push_back(a);
    }
  };
  const auto pool_departure = [&](int a, int sess, double r) {
    const size_t at = kconn_plan_.at(a, sess);
    if (r == kconn_plan_.pmin[at]) {
      if (--kconn_plan_.pcount[at] == 0) mark_rescan(a);
    }
  };
  const auto pool_arrival = [&](int a, int sess, double r) {
    const size_t at = kconn_plan_.at(a, sess);
    double& pm = kconn_plan_.pmin[at];
    if (r < pm) {
      pm = r;
      kconn_plan_.pcount[at] = 1;
    } else if (r == pm) {
      ++kconn_plan_.pcount[at];
    }
  };

  std::vector<std::pair<int, double>> old_links;  // (ap, rate) before a move
  // Every other slot kept its record and its AP: nothing to mark.
  for (const int s : changed) {
    const UserSlot before = s < state_.n_slots() ? state_.slot(s) : UserSlot{};
    const UserSlot& after = next.slot(s);
    const int old_ap = static_cast<size_t>(s) < slot_ap_.size()
                           ? slot_ap_[static_cast<size_t>(s)]
                           : wlan::kNoAp;
    const int new_ap = static_cast<size_t>(s) < new_slot_ap.size()
                           ? new_slot_ap[static_cast<size_t>(s)]
                           : wlan::kNoAp;
    // Pool membership = base-served: the slot contributes to the
    // potential-adopter min of every heard AP iff it is served in the base.
    const bool old_pool = before.wants_service() && old_ap != wlan::kNoAp;
    const bool new_pool = after.wants_service() && new_ap != wlan::kNoAp;
    if (!(before == after)) {
      // Invisible on both sides (e.g. a rejected admission, or a join+leave
      // coalescing to nothing): the projection never sees the slot, so the
      // overlay cannot depend on it. No dirt — this is what keeps
      // quiescent-equivalent epochs on the cached overlay.
      if (!before.wants_service() && !after.wants_service()) continue;
      mark_slot(s);
      if (old_ap != wlan::kNoAp) kconn_settle_hint_.push_back(old_ap);
      if (new_ap != wlan::kNoAp && new_ap != old_ap) {
        kconn_settle_hint_.push_back(new_ap);
      }
      const bool pure_move = old_pool && new_pool &&
                             before.session == after.session;
      if (pure_move) {
        // A relocation of a user that stays subscribed to the same session
        // and base-served only moves an AP's plan inputs where the DISCRETE
        // link rate to the user changed: equal rates contribute identically
        // to the potential-adopter mins. 802.11 rates are distance-quantized,
        // so a short walk usually leaves most heard APs' rates — and hence
        // their plans — untouched. This is what keeps a move's blast radius
        // small.
        const int sess = before.session;
        old_links.clear();
        state_.for_each_ap_near(before.pos, [&](int a) {
          const double r = state_.link_rate(a, s);
          if (r > 0.0) old_links.emplace_back(a, r);
        });
        next.for_each_ap_near(after.pos, [&](int a) {
          const double rn = next.link_rate(a, s);
          if (rn <= 0.0) return;
          for (auto& [oa, orate] : old_links) {
            if (oa == a) {
              if (orate != rn) {
                mark_ap(a);
                pool_departure(a, sess, orate);
                pool_arrival(a, sess, rn);
              }
              orate = -1.0;  // matched: not old-only
              return;
            }
          }
          mark_ap(a);  // newly in range
          pool_arrival(a, sess, rn);
        });
        for (const auto& [oa, orate] : old_links) {
          if (orate > 0.0) {
            mark_ap(oa);  // dropped out of range
            pool_departure(oa, sess, orate);
          }
        }
        // A forced handoff on top of the move changes both groups' base
        // memberships (and hence base tx / load of both primaries).
        if (old_ap != new_ap) {
          mark_ap(old_ap);
          mark_ap(new_ap);
        }
        continue;
      }
      // Joins, leaves, zaps, (un)subscribes and serve-status flips change the
      // slot's base-served status or session: every AP that could hear it
      // before or after has its potential-adopter mins moved.
      if (before.wants_service()) {
        state_.for_each_ap_near(before.pos, [&](int a) {
          const double r = state_.link_rate(a, s);
          if (r <= 0.0) return;
          mark_ap(a);
          if (old_pool) pool_departure(a, before.session, r);
        });
      }
      if (after.wants_service()) {
        next.for_each_ap_near(after.pos, [&](int a) {
          const double r = next.link_rate(a, s);
          if (r <= 0.0) return;
          mark_ap(a);
          if (new_pool) pool_arrival(a, after.session, r);
        });
      }
      continue;
    }
    if (old_ap == new_ap) continue;
    // Same record, different committed primary: the slot's served-set must be
    // re-derived and the stream plans of the affected APs re-planned.
    mark_slot(s);
    if (old_ap != wlan::kNoAp) kconn_settle_hint_.push_back(old_ap);
    if (new_ap != wlan::kNoAp) kconn_settle_hint_.push_back(new_ap);
    if (old_ap != wlan::kNoAp && new_ap != wlan::kNoAp) {
      // A handoff moves the user between two multicast groups; other heard
      // APs see the same base-served hearer as before — and the adopter pools
      // key on served-ness, not the primary, so pmin is untouched everywhere.
      mark_ap(old_ap);
      mark_ap(new_ap);
    } else {
      // Served <-> unserved flips the slot's base-served status, which feeds
      // the potential-adopter min of EVERY heard AP's silent streams. The
      // record did not change, so old and new link rates coincide.
      state_.for_each_ap_near(before.pos, [&](int a) {
        const double r = state_.link_rate(a, s);
        if (r <= 0.0) return;
        mark_ap(a);
        if (old_ap != wlan::kNoAp) {
          pool_departure(a, before.session, r);
        } else {
          pool_arrival(a, before.session, r);
        }
      });
    }
  }
  std::sort(kconn_dirty_aps_.begin(), kconn_dirty_aps_.end());
  std::sort(kconn_dirty_slots_.begin(), kconn_dirty_slots_.end());
}

void AssociationController::refresh_multi(EpochReport& rep) {
  if (cfg_.k < 2) return;
  // Every exit path (quiescent, cold, incremental) accumulates into
  // kconn_seconds_ so benches can isolate the overlay step's cost.
  struct Timer {
    double* acc;
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~Timer() {
      *acc += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
    }
  } timer{&kconn_seconds_};
  const int n = compact_sc_.n_users();
  const int n_aps = compact_sc_.n_aps();

  // kconn-quiescent epoch: nothing the overlay reads moved (no visible record
  // change, no committed AP change, no rate change), so the cached overlay,
  // tx table and load report are all still exact — including across rejected
  // admissions and other invisible-slot churn.
  if (multi_valid_ && !kconn_rate_changed_ && kconn_dirty_aps_.empty() &&
      kconn_dirty_slots_.empty()) {
    rep.multi_served_users = multi_loads_.multi_served_users;
    rep.mean_effective_rate = multi_loads_.mean_effective_rate;
    return;
  }

  assoc::KconnParams kp;
  kp.k = cfg_.k;
  kp.multi_rate = cfg_.multi_rate;
  kp.enforce_budget = true;

  // The committed primary view in this epoch's row space.
  const wlan::Association& row_assoc = row_assoc_;

  if (kconn_plan_.n_aps != n_aps ||
      kconn_plan_.n_sessions != compact_sc_.n_sessions()) {
    kconn_plan_.resize(n_aps, compact_sc_.n_sessions());
    kconn_tx_.assign(static_cast<size_t>(n_aps),
                     std::vector<double>(
                         static_cast<size_t>(compact_sc_.n_sessions()), 0.0));
  }
  if (kconn_served_.size() < static_cast<size_t>(state_.n_slots())) {
    kconn_served_.resize(static_cast<size_t>(state_.n_slots()));
  }
  if (kconn_lanes_.size() < static_cast<size_t>(pool_.size())) {
    kconn_lanes_.resize(static_cast<size_t>(pool_.size()));
  }

  const bool cold =
      !multi_valid_ || kconn_rate_changed_ || !cfg_.kconn_incremental;
  if (cold) {
    // Serial full re-derivation: plan every AP, derive every row, settle
    // every AP. This is the reference the chaos oracle and the bench cold leg
    // compare the incremental path against.
    for (int a = 0; a < n_aps; ++a) {
      assoc::kconn_plan_ap(compact_sc_, row_assoc, loads_, kp, a, kconn_plan_);
    }
    if (multi_assoc_.n_users() != n) multi_assoc_.user_aps.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      assoc::kconn_derive_user(compact_sc_, row_assoc, kconn_plan_, kp, r,
                               multi_assoc_.user_aps[static_cast<size_t>(r)],
                               kconn_lanes_[0]);
    }
    for (auto& served : kconn_served_) served.clear();
    for (int r = 0; r < n; ++r) {
      kconn_served_[static_cast<size_t>(row_slot_[static_cast<size_t>(r)])] =
          multi_assoc_.user_aps[static_cast<size_t>(r)];
    }
    for (int a = 0; a < n_aps; ++a) {
      assoc::kconn_settle_ap(compact_sc_, loads_, kp, kconn_plan_, multi_assoc_,
                             a, kconn_tx_[static_cast<size_t>(a)].data());
    }
    rep.kconn_rebuild = true;
  } else {
    // Incremental dirty-region repair (DESIGN.md §16). Correctness rests on
    // the marking invariants (kconn_mark_dirty): every AP whose plan inputs
    // moved is in kconn_dirty_aps_ with its pmin row delta-maintained (or
    // queued for rescan), and every slot whose served-set inputs moved is in
    // kconn_dirty_slots_ or hears a changed plan row.
    //
    // 1. Refresh the plan rows of the dirty APs: rescan the pmin row only
    //    where a departure delta may have removed the min, then re-derive
    //    advert/startable in O(sessions) from the maintained pmin. Track
    //    which (AP, session) plan entries actually CHANGED: derivation reads
    //    nothing of an AP but its plan entries for the user's own session, so
    //    a dirty AP whose re-planned entry is bitwise unchanged cannot move
    //    any clean hearer's served-set (hearers whose own heard-set, links or
    //    primary moved have dirty slots and enter U through them). This is
    //    what keeps the blast radius of a move — which dirties every AP in
    //    hearing range — from pulling the whole neighborhood into U.
    const int n_sessions = compact_sc_.n_sessions();
    std::vector<int> changed_aps;
    std::vector<std::pair<int, int>> changed_pairs;  // (ap, session), ap-major
    std::vector<double> prev_advert(static_cast<size_t>(n_sessions));
    std::vector<char> prev_startable(static_cast<size_t>(n_sessions));
    for (const int a : kconn_dirty_aps_) {
      const size_t row = kconn_plan_.at(a, 0);
      std::copy_n(kconn_plan_.advert.begin() + static_cast<ptrdiff_t>(row),
                  n_sessions, prev_advert.begin());
      std::copy_n(kconn_plan_.startable.begin() + static_cast<ptrdiff_t>(row),
                  n_sessions, prev_startable.begin());
      if (kconn_rescan_mark_[static_cast<size_t>(a)]) {
        assoc::kconn_scan_pmin(compact_sc_, row_assoc, a, kconn_plan_);
      }
      assoc::kconn_plan_from_pmin(compact_sc_, loads_, kp, a, kconn_plan_);
      bool changed = false;
      for (int s = 0; s < n_sessions; ++s) {
        if (kconn_plan_.advert[row + static_cast<size_t>(s)] !=
                prev_advert[static_cast<size_t>(s)] ||
            kconn_plan_.startable[row + static_cast<size_t>(s)] !=
                prev_startable[static_cast<size_t>(s)]) {
          changed_pairs.emplace_back(a, s);
          changed = true;
        }
      }
      if (changed) changed_aps.push_back(a);
    }

    // 2. The dirty rows U: rows of dirty slots, plus rows hearing a changed
    //    (AP, session) plan entry FOR THEIR OWN SESSION (a served-set can
    //    only contain heard APs, a user only reads its session's plan
    //    entries, and a clean slot's heard-set did not change — so U covers
    //    every row whose derivation inputs moved).
    //    Sorted and unique, so the component tasks see the rows ascending.
    std::vector<int> dirty_rows;
    for (const int s : kconn_dirty_slots_) {
      const int r = row_of(s);
      if (r >= 0) dirty_rows.push_back(r);
    }
    for (size_t i = 0; i < changed_pairs.size();) {
      const int a = changed_pairs[i].first;
      size_t j = i;
      while (j < changed_pairs.size() && changed_pairs[j].first == a) ++j;
      const wlan::IndexSpan members = compact_sc_.users_of_ap(a);
      for (size_t m = 0; m < members.size(); ++m) {
        const int r = members[m];
        const int us = compact_sc_.user_session(r);
        for (size_t t = i; t < j; ++t) {
          if (changed_pairs[t].second == us) {
            dirty_rows.push_back(r);
            break;
          }
        }
      }
      i = j;
    }
    std::sort(dirty_rows.begin(), dirty_rows.end());
    dirty_rows.erase(std::unique(dirty_rows.begin(), dirty_rows.end()), dirty_rows.end());

    // 3. Settle set: every AP whose settle inputs can have moved — a changed
    //    plan row (changed_aps), a changed base tx / membership (the old and
    //    new primaries of dirty slots, collected by kconn_mark_dirty), or a
    //    changed adopter contribution: the old served-sets of DEPARTED dirty
    //    slots (whose store entries are retired here); surviving rows mark
    //    after derivation, and only when their adopter contribution actually
    //    moved. A dirty AP outside these sets kept its plan row, base tx,
    //    members' links and members' serves, so its settled tx row is
    //    unchanged by construction.
    std::vector<char> settle_mark(static_cast<size_t>(n_aps), 0);
    std::vector<int> settle_aps;
    const auto mark_settle = [&](int a) {
      if (!settle_mark[static_cast<size_t>(a)]) {
        settle_mark[static_cast<size_t>(a)] = 1;
        settle_aps.push_back(a);
      }
    };
    for (const int a : changed_aps) mark_settle(a);
    for (const int a : kconn_settle_hint_) mark_settle(a);
    for (const int s : kconn_dirty_slots_) {
      if (static_cast<size_t>(s) >= kconn_served_.size()) continue;
      if (row_of(s) >= 0) continue;  // still in the projection
      for (const int a : kconn_served_[static_cast<size_t>(s)]) mark_settle(a);
      kconn_served_[static_cast<size_t>(s)].clear();
    }

    // 4. Re-derive the dirty rows of the row-space overlay. Carried rows
    //    already hold their slot's served-set: patch_projection spliced
    //    multi_assoc_ with the rows. Dirty rows are re-derived in parallel
    //    over AP-connected components (disjoint row sets -> disjoint writes,
    //    fixed task order -> bitwise identical at any thread count;
    //    per-phase inputs are all read-only).
    ComponentTasks tasks;
    std::vector<int> isolated;
    build_component_tasks(compact_sc_, dirty_rows, tasks, isolated);
    pool_.parallel_for(
        0, static_cast<int64_t>(tasks.order.size()),
        [&](int64_t b, int64_t e, int lane) {
          for (int64_t i = b; i < e; ++i) {
            const int t = tasks.order[static_cast<size_t>(i)];
            for (const int r : tasks.rows[static_cast<size_t>(t)]) {
              assoc::kconn_derive_user(
                  compact_sc_, row_assoc, kconn_plan_, kp, r,
                  multi_assoc_.user_aps[static_cast<size_t>(r)],
                  kconn_lanes_[static_cast<size_t>(lane)]);
            }
          }
        });
    for (const int r : isolated) {
      assoc::kconn_derive_user(compact_sc_, row_assoc, kconn_plan_, kp, r,
                               multi_assoc_.user_aps[static_cast<size_t>(r)],
                               kconn_lanes_[0]);
    }
    // Re-derived rows settle-mark their old AND new served APs — but only
    // when the adopter contribution moved: a row pulled into U by a changed
    // plan entry that re-derives the identical served-set, with its record
    // (and hence its link rates) untouched, contributes the same rate to the
    // same adopter mins as before. Dirty SLOTS always mark: their links may
    // have changed even where the served-set did not.
    for (const int r : dirty_rows) {
      const int s = row_slot_[static_cast<size_t>(r)];
      auto& stored = kconn_served_[static_cast<size_t>(s)];
      const auto& fresh = multi_assoc_.user_aps[static_cast<size_t>(r)];
      const bool slot_dirty = static_cast<size_t>(s) < kconn_slot_mark_.size() &&
                              kconn_slot_mark_[static_cast<size_t>(s)] != 0;
      if (slot_dirty || stored != fresh) {
        for (const int a : stored) mark_settle(a);
        for (const int a : fresh) mark_settle(a);
        stored = fresh;
      }
    }

    // 5. Re-settle only the touched APs; every other tx row's inputs (its
    //    members, their served flags, its base tx and plan row) are unmoved.
    for (const int a : settle_aps) {
      assoc::kconn_settle_ap(compact_sc_, loads_, kp, kconn_plan_, multi_assoc_,
                             a, kconn_tx_[static_cast<size_t>(a)].data());
    }

    rep.kconn_repaired = true;
    rep.kconn_repaired_users = static_cast<int>(dirty_rows.size());
    rep.kconn_carried_users = n - static_cast<int>(dirty_rows.size());
  }

  // 6. Fold the settled tx table into the load report in the reference
  //    accumulation order — bitwise identical to compute_multi_loads on both
  //    paths.
  multi_loads_ = assoc::kconn_collect_loads(compact_sc_, multi_assoc_, kconn_tx_);
  multi_valid_ = true;
  rep.multi_served_users = multi_loads_.multi_served_users;
  rep.mean_effective_rate = multi_loads_.mean_effective_rate;
}

assoc::Solution AssociationController::solve_full(const wlan::Scenario& sc,
                                                  const std::vector<int>& row_slot,
                                                  EpochReport& rep) {
  if (sc.n_users() == 0) {
    return assoc::make_solution(cfg_.full_solver, sc, wlan::Association::none(0),
                                cfg_.multi_rate);
  }
  // Fast path: the default solver (MLA-C = greedy set cover) runs directly on
  // the maintained slot-space engine instead of re-projecting the scenario
  // into a fresh set system. The engine enumerates sets in the same (AP,
  // session, descending rate) order the reduction does and rows are slots in
  // ascending order, so the greedy picks — and hence the association — are
  // identical to the registry path.
  if (cfg_.full_solver == "mla-c" && cfg_.multi_rate) {
    const auto t0 = std::chrono::steady_clock::now();
    core::CoverResult greedy;
    if (pool_.size() > 1) {
      // Sharded per-session solve across the pool. The chosen *set* — and
      // hence the first-chosen-wins association below — matches the joint
      // greedy exactly (sets of one session never cover another session's
      // slots), so this path commits the same association as threads = 1.
      shards_.build(engine_);
      greedy = core::parallel_greedy_cover(engine_, pool_, shard_ws_, shards_,
                                           &rep.parallel);
      rep.parallel_solved = true;
    } else {
      greedy = core::greedy_cover(engine_, solve_ws_);
    }
    slot_row_.assign(static_cast<size_t>(engine_.n_elements()), -1);
    for (int r = 0; r < sc.n_users(); ++r) {
      slot_row_[static_cast<size_t>(row_slot[static_cast<size_t>(r)])] = r;
    }
    auto assoc = wlan::Association::none(sc.n_users());
    for (const int j : greedy.chosen) {
      const int a = engine_.ap(j);
      for (const int32_t slot : engine_.members(j)) {
        const int r = slot_row_[static_cast<size_t>(slot)];
        if (r >= 0 && assoc.user_ap[static_cast<size_t>(r)] == wlan::kNoAp) {
          assoc.user_ap[static_cast<size_t>(r)] = a;
        }
      }
    }
    auto sol = assoc::make_solution("MLA-C", sc, std::move(assoc), cfg_.multi_rate);
    sol.solve_seconds = seconds_since(t0);
    return sol;
  }
  assoc::SolveOptions opt;
  opt.multi_rate = cfg_.multi_rate;
  return assoc::solve_by_name(cfg_.full_solver, sc, rng_, opt);
}

void AssociationController::mark_engine_dirty(const NetworkState& next,
                                              const std::vector<int>& touched) {
  if (group_mark_.size() < static_cast<size_t>(next.n_aps())) {
    group_mark_.resize(static_cast<size_t>(next.n_aps()), 0);
  }
  const auto mark = [&](int a) {
    if (!group_mark_[static_cast<size_t>(a)]) {
      group_mark_[static_cast<size_t>(a)] = 1;
      dirty_groups_.push_back(a);
    }
  };

  bool rate_changed = false;
  for (int t = 0; t < next.n_sessions() && !rate_changed; ++t) {
    rate_changed = next.session_rate(t) != state_.session_rate(t);
  }
  if (rate_changed) {
    // A stream-rate change reprices every set of that session; rebuild all.
    for (int a = 0; a < next.n_aps(); ++a) mark(a);
  } else {
    std::vector<int> near;  // reused per slot
    for (const int s : touched) {
      if (s < state_.n_slots() && state_.slot(s) == next.slot(s)) continue;
      // APs that held this slot before: exactly the groups of the sets the
      // inverted index lists for it. Across deferred epochs the index still
      // reflects the last flush, so re-marking yields the same "from" APs.
      if (s < engine_.n_elements()) {
        engine_.for_each_set_of(s, [&](int j) { mark(engine_.ap(j)); });
      }
      // APs that gain it now: anything in range of the new position, found
      // through the AP grid in O(k). Sorted before marking so the marks land
      // in the same ascending order the pre-grid full scan produced —
      // dirty_groups_ order feeds set-id assignment, which is deterministic.
      if (next.slot(s).wants_service()) {
        near.clear();
        next.for_each_ap_near(next.slot(s).pos, [&](int a) {
          if (next.link_rate(a, s) > 0.0) near.push_back(a);
        });
        std::sort(near.begin(), near.end());
        for (const int a : near) mark(a);
      }
    }
  }
  if (!dirty_groups_.empty() || next.n_slots() > engine_.n_elements()) {
    engine_flush_pending_ = true;
  }
}

void AssociationController::flush_engine(const NetworkState& st) {
  if (!engine_flush_pending_) return;
  // Rescan dirty groups in (grid cell, ap) order: neighboring APs share most
  // of their member slots, so walking their CSR rows back-to-back hits the
  // per-slot data while it is still cache-hot. The key is a pure function of
  // the AP layout, so set-id assignment — and hence solver tie-breaks — stays
  // deterministic for a given accumulated mark set. States built from
  // explicit link rates carry no AP geometry; they keep insertion order.
  const auto& grid = st.ap_grid();
  const auto& pos = st.ap_positions();
  const bool have_geometry =
      !dirty_groups_.empty() &&
      pos.size() > static_cast<size_t>(*std::max_element(dirty_groups_.begin(),
                                                         dirty_groups_.end()));
  if (have_geometry) {
    std::sort(dirty_groups_.begin(), dirty_groups_.end(), [&](int a, int b) {
      const int64_t ka = grid.cell_key(pos[static_cast<size_t>(a)]);
      const int64_t kb = grid.cell_key(pos[static_cast<size_t>(b)]);
      if (ka != kb) return ka < kb;
      return a < b;
    });
  }
  engine_.update_groups(StateSource(st, compact_sc_, row_slot_), dirty_groups_,
                        cfg_.multi_rate);
  for (const int a : dirty_groups_) group_mark_[static_cast<size_t>(a)] = 0;
  dirty_groups_.clear();
  engine_flush_pending_ = false;
}

void AssociationController::sync_engine_stats(EpochReport& rep) {
  const core::EngineStats& now = engine_.stats();
  const core::EngineStats& old = engine_stats_synced_;
  const auto delta = [](uint64_t a, uint64_t b) { return static_cast<int>(a - b); };
  rep.engine_full_builds = delta(now.full_builds, old.full_builds);
  rep.engine_incremental_updates = delta(now.incremental_updates, old.incremental_updates);
  rep.engine_groups_rebuilt = delta(now.groups_rebuilt, old.groups_rebuilt);
  rep.engine_sets_rebuilt = delta(now.sets_rebuilt, old.sets_rebuilt);
  rep.engine_sets_retired = delta(now.sets_retired, old.sets_retired);
  rep.engine_compactions = delta(now.compactions, old.compactions);
  engine_stats_synced_ = now;
}

bool AssociationController::admit(const JoinRequest& req) const {
  if (!cfg_.admission_control) return true;
  if (cfg_.admission_hook) return cfg_.admission_hook(req, loads_.ap_load, state_);

  // Built-in budget gate: admit iff some in-range AP can absorb the user's
  // exact marginal load (the multicast group's bottleneck rate after the
  // join) within the scenario budget — MNU's per-AP budget semantics applied
  // at the door.
  const double stream = req.session < state_.n_sessions()
                            ? state_.session_rate(req.session)
                            : 0.0;
  if (stream <= 0.0) return false;
  // Any-fit over the in-range APs only (grid query; order-free boolean).
  bool ok = false;
  state_.for_each_ap_near(req.pos, [&](int a) {
    if (ok) return;
    const double r = state_.rate_table().rate_for_distance(
        wlan::distance(state_.ap_positions()[static_cast<size_t>(a)], req.pos));
    if (r <= 0.0) return;
    const double old_tx =
        static_cast<size_t>(a) < loads_.tx_rate.size()
            ? loads_.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(req.session)]
            : 0.0;
    const double new_tx = old_tx > 0.0 ? std::min(old_tx, r) : r;
    const double marginal = stream / new_tx - (old_tx > 0.0 ? stream / old_tx : 0.0);
    const double load = static_cast<size_t>(a) < loads_.ap_load.size()
                            ? loads_.ap_load[static_cast<size_t>(a)]
                            : 0.0;
    if (util::fits_budget(load + marginal, state_.load_budget())) ok = true;
  });
  return ok;
}

wlan::Association AssociationController::repair(const wlan::Association& carried,
                                                const std::vector<int>& movable_rows,
                                                const std::vector<int>& over_budget,
                                                bool polish, EpochReport& rep) {
  // AP-disjoint component tasks across the pool, peel + greedy + task-local
  // polish per shard (ctrl/repair_shard.hpp). Bitwise identical at any
  // thread count.
  RepairShardParams rp;
  rp.multi_rate = cfg_.multi_rate;
  rp.polish = polish;
  rp.polish_min_gain = cfg_.polish_min_gain;
  wlan::Association out = carried;
  RepairShardStats stats;
  repair_sharded(compact_sc_, out.user_ap, movable_rows, over_budget, rp, pool_,
                 repair_ws_, &stats);
  ++rep.repair_calls;
  rep.repair_shards_run += stats.shards;
  rep.repair_shards = stats.shards;
  rep.repair_imbalance = stats.imbalance;
  return out;
}

std::vector<int> AssociationController::carried_over_budget(
    const wlan::Association& carried, const std::vector<int>& touched, bool all_aps,
    EpochReport& rep) {
  std::vector<int> over;
  const wlan::Scenario& sc = compact_sc_;
  std::vector<int> refold;
  if (all_aps) {
    refold.resize(static_cast<size_t>(sc.n_aps()));
    std::iota(refold.begin(), refold.end(), 0);
  } else {
    for (const int s : touched) {
      if (committed_ap(s) != wlan::kNoAp) refold.push_back(committed_ap(s));
    }
    std::sort(refold.begin(), refold.end());
    refold.erase(std::unique(refold.begin(), refold.end()), refold.end());
  }
  rep.aps_refolded = static_cast<int>(refold.size());
  std::vector<double> min_rate;
  size_t next_refold = 0;
  for (int a = 0; a < sc.n_aps(); ++a) {
    double load = loads_.ap_load[static_cast<size_t>(a)];
    if (next_refold < refold.size() && refold[next_refold] == a) {
      load = fold_ap_load(sc, carried.user_ap, a, cfg_.multi_rate, min_rate, nullptr);
      ++next_refold;
    }
    if (util::exceeds_budget(load, sc.load_budget())) over.push_back(a);
  }
  return over;
}

int AssociationController::row_of(int slot) const {
  const auto it = std::lower_bound(row_slot_.begin(), row_slot_.end(), slot);
  if (it == row_slot_.end() || *it != slot) return -1;
  return static_cast<int>(it - row_slot_.begin());
}

int AssociationController::committed_ap(int slot) const {
  return static_cast<size_t>(slot) < slot_ap_.size() ? slot_ap_[static_cast<size_t>(slot)]
                                                      : wlan::kNoAp;
}

AssociationController::ChangeCount AssociationController::count_changes(
    const std::vector<int>& new_slot_ap, const std::vector<int>& slots,
    const NetworkState& next) const {
  ChangeCount c;
  for (const int i : slots) {
    const int o = committed_ap(i);
    const int w = static_cast<size_t>(i) < new_slot_ap.size()
                      ? new_slot_ap[static_cast<size_t>(i)]
                      : wlan::kNoAp;
    if (o == w) continue;
    ++c.total;
    if (o == wlan::kNoAp) continue;  // pure join: neither forced nor voluntary
    if (w != wlan::kNoAp) ++c.handoffs;
    const bool still_valid = i < next.n_slots() && next.slot(i).wants_service() &&
                             next.link_rate(o, i) > 0.0;
    if (still_valid) {
      ++c.voluntary;
    } else {
      ++c.forced;
    }
  }
  return c;
}

int AssociationController::patch_projection(const NetworkState& next,
                                            const std::vector<int>& touched) {
  // Edits in the committed projection's row ids: row_slot_ ascends, so a
  // slot's row — or the row a newly served slot lands in front of — is a
  // binary search away, and `touched` ascending keeps erases and inserts
  // ascending too.
  wlan::ScenarioDelta delta;
  std::vector<int> inserted_slots;
  for (const int s : touched) {
    const UserSlot before = s < state_.n_slots() ? state_.slot(s) : UserSlot{};
    const UserSlot& after = next.slot(s);
    if (!before.wants_service() && !after.wants_service()) continue;
    const int row = static_cast<int>(
        std::lower_bound(row_slot_.begin(), row_slot_.end(), s) - row_slot_.begin());
    if (!after.wants_service()) {
      delta.erased.push_back(row);
    } else if (!before.wants_service()) {
      delta.inserted.push_back({row, after.pos, after.session});
      inserted_slots.push_back(s);
    } else {
      if (before.pos != after.pos) delta.moved.emplace_back(row, after.pos);
      if (before.session != after.session) delta.rezapped.emplace_back(row, after.session);
    }
  }
  for (int t = 0; t < next.n_sessions(); ++t) {
    if (next.session_rate(t) != state_.session_rate(t)) {
      compact_sc_.set_session_rate(t, next.session_rate(t));
    }
  }
  const int queried = compact_sc_.patch(delta);
  if (delta.erased.empty() && delta.inserted.empty()) return queried;

  // Splice the row map, the committed row association and (k >= 2) the
  // overlay's served-sets the same way: drop the erased rows, insert the new
  // slots (with no AP and an empty served-set) in front of their rows.
  // Served-sets are moved, so a kept row costs no copy.
  const bool splice_multi = cfg_.k >= 2;
  WMCAST_ASSERT(!splice_multi || multi_assoc_.user_aps.size() == row_slot_.size(),
                "patch_projection: overlay rows out of step with the projection");
  row_slot_spare_.clear();
  row_ap_spare_.clear();
  multi_spare_.clear();
  std::vector<int>& row_ap = row_assoc_.user_ap;
  std::vector<std::vector<int>>& served = multi_assoc_.user_aps;
  size_t ie = 0;
  size_t ii = 0;
  for (size_t r = 0;; ++r) {
    while (ii < delta.inserted.size() &&
           static_cast<size_t>(delta.inserted[ii].before) == r) {
      row_slot_spare_.push_back(inserted_slots[ii++]);
      row_ap_spare_.push_back(wlan::kNoAp);
      if (splice_multi) multi_spare_.emplace_back();
    }
    if (r == row_slot_.size()) break;
    if (ie < delta.erased.size() && static_cast<size_t>(delta.erased[ie]) == r) {
      ++ie;
      continue;
    }
    row_slot_spare_.push_back(row_slot_[r]);
    row_ap_spare_.push_back(row_ap[r]);
    if (splice_multi) multi_spare_.push_back(std::move(served[r]));
  }
  std::swap(row_slot_, row_slot_spare_);
  std::swap(row_ap, row_ap_spare_);
  if (splice_multi) std::swap(served, multi_spare_);
  return queried;
}

void AssociationController::patch_loads(const wlan::Association& cand,
                                        const std::vector<int>& cand_slot,
                                        const std::vector<int>& changed,
                                        const std::vector<int>& touched, bool all_aps) {
  const wlan::Scenario& sc = compact_sc_;
  wlan::LoadReport& out = loads_next_;
  out = loads_;

  // APs that gained or lost a member (re-placed slots) or whose member's
  // record changed (touched slots), on the old and the new side.
  std::vector<int> aps;
  for (const int s : changed) {
    const int o = committed_ap(s);
    const int w = cand_slot[static_cast<size_t>(s)];
    if (o == w) continue;
    out.satisfied_users += (w != wlan::kNoAp) - (o != wlan::kNoAp);
    if (o != wlan::kNoAp) aps.push_back(o);
    if (w != wlan::kNoAp) aps.push_back(w);
  }
  for (const int s : touched) {
    const int o = committed_ap(s);
    const int w = cand_slot[static_cast<size_t>(s)];
    if (o != wlan::kNoAp) aps.push_back(o);
    if (w != wlan::kNoAp) aps.push_back(w);
  }
  if (all_aps) {
    aps.resize(static_cast<size_t>(sc.n_aps()));
    std::iota(aps.begin(), aps.end(), 0);
  }
  std::sort(aps.begin(), aps.end());
  aps.erase(std::unique(aps.begin(), aps.end()), aps.end());

  std::vector<double> min_rate;
  for (const int a : aps) {
    out.ap_load[static_cast<size_t>(a)] = fold_ap_load(
        sc, cand.user_ap, a, cfg_.multi_rate, min_rate,
        out.tx_rate[static_cast<size_t>(a)].data());
  }
  out.total_load = 0.0;
  out.max_load = 0.0;
  out.budget_violations = 0;
  for (const double load : out.ap_load) {
    out.total_load += load;
    out.max_load = std::max(out.max_load, load);
    if (util::exceeds_budget(load, sc.load_budget())) ++out.budget_violations;
  }
}

EpochReport AssociationController::drain() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto events = queue_.drain(cfg_.max_batch);

  EpochReport rep;
  rep.epoch = epoch_index_;
  rep.events = static_cast<int>(events.size());

  // --- 1. apply the batch to a scratch state (the epoch snapshot is simply
  // the committed state_/slot_ap_, restored by not committing). -------------
  NetworkState next = state_;
  std::map<int, int> slot_events;
  std::map<int, int> session_events;
  for (const auto& e : events) {
    ++rep.events_by_type[static_cast<size_t>(e.type)];
    if (e.type == EventType::kUserJoin) {
      const bool valid = e.user >= 0 && e.user <= next.n_slots() && e.session >= 0 &&
                         e.session < next.n_sessions() &&
                         std::isfinite(e.pos.x) && std::isfinite(e.pos.y) &&
                         (e.user == next.n_slots() || !next.slot(e.user).present);
      if (!valid) {
        ++rep.events_invalid;
        continue;
      }
      const bool ok = admit({e.user, e.pos, e.session});
      next.apply(e);
      if (ok) {
        ++rep.joins_admitted;
      } else {
        next.apply(Event::unsubscribe(e.user));
        ++rep.rejected_joins;
      }
      ++rep.events_applied;
      ++slot_events[e.user];
      continue;
    }
    try {
      next.apply(e);
      ++rep.events_applied;
      if (e.type == EventType::kRateChange) {
        ++session_events[e.session];
      } else {
        ++slot_events[e.user];
      }
    } catch (const std::invalid_argument&) {
      ++rep.events_invalid;
    }
  }

  // --- 2. coalescing accounting: every event on a slot/session whose net
  // state is unchanged across the drain cancelled out. ----------------------
  for (const auto& [slot, cnt] : slot_events) {
    const UserSlot before = slot < state_.n_slots() ? state_.slot(slot) : UserSlot{};
    const UserSlot& after = next.slot(slot);
    // Net no-op from the optimizer's perspective: an identical record, or a
    // user invisible (not wanting service) on both sides — e.g. a join and a
    // leave of the same user landing in one batch.
    if (before == after || (!before.wants_service() && !after.wants_service())) {
      rep.events_coalesced += cnt;
    }
  }
  for (const auto& [s, cnt] : session_events) {
    if (s < state_.n_sessions() && state_.session_rate(s) == next.session_rate(s)) {
      rep.events_coalesced += cnt;
    }
  }

  // --- 3. dirty region + compact projection. -------------------------------
  // Mark the APs the batch touched; their candidate sets are re-projected
  // only when a full solve next needs the engine (most serve epochs never
  // do). The dirty region reads the committed projection, so it runs before
  // the projection is patched.
  std::vector<int> touched;  // slots the applied events named, ascending
  touched.reserve(slot_events.size());
  for (const auto& [slot, cnt] : slot_events) touched.push_back(slot);
  mark_engine_dirty(next, touched);
  const auto dirty_slots = dirty_slots_from_delta(state_, next, slot_ap_, touched,
                                                  unserved_, compact_sc_, row_slot_);
  rep.dirty_users = static_cast<int>(dirty_slots.size());

  bool stream_rate_changed = false;
  for (int t = 0; t < next.n_sessions(); ++t) {
    stream_rate_changed |= next.session_rate(t) != state_.session_rate(t);
  }
  const double old_basic_rate = compact_sc_.basic_rate();

  // From here to the commit compact_sc_/row_slot_/row_assoc_ already
  // describe `next`. Should anything throw before the commit, the committed
  // state_ is re-projected cold so the two never drift apart.
  const wlan::Scenario& sc = compact_sc_;
  const std::vector<int>& row_slot = row_slot_;
  wlan::Association cand;
  std::vector<int> cand_slot;
  // Slots whose AP may differ between slot_ap_ and cand_slot, ascending: the
  // touched slots plus those of the rows the repair re-placed.
  std::vector<int> changed;
  ChangeCount cc;
  wlan::LoadReport& cand_loads = loads_next_;
  try {
    rep.rows_projected = patch_projection(next, touched);

    // Sticky carry: everyone whose old AP is still valid keeps it —
    // including dirty users, whose placement is *reconsidered* (by the
    // restricted polish) rather than discarded. Re-placing the dirty region
    // from scratch would re-associate users whose small move changed
    // nothing, defeating the signaling advantage the controller exists for.
    // Only touched rows need a range check: an untouched slot kept its
    // position, and AP positions never change.
    wlan::Association carried = row_assoc_;
    std::vector<int> carry_failed;  // touched rows left without an AP
    for (const int s : touched) {
      const int r = row_of(s);
      if (r < 0) continue;
      int& a = carried.user_ap[static_cast<size_t>(r)];
      if (a != wlan::kNoAp) {
        ++rep.rows_rechecked;
        if (!sc.in_range(a, r)) a = wlan::kNoAp;
      }
      if (a == wlan::kNoAp) carry_failed.push_back(r);
    }
    // Every row the carry leaves without an AP: the committed unserved rows
    // and the touched rows whose carry failed.
    std::vector<int> unserved_rows;
    for (const int s : unserved_) {
      const int r = row_of(s);
      if (r >= 0) unserved_rows.push_back(r);
    }
    const std::vector<int> unplaced = merge_unique(unserved_rows, carry_failed);
    std::vector<int> dirty_slot_rows;
    dirty_slot_rows.reserve(dirty_slots.size());
    for (const int s : dirty_slots) dirty_slot_rows.push_back(row_of(s));
    const std::vector<int> dirty_rows = merge_unique(dirty_slot_rows, unplaced);

    const bool all_aps =
        stream_rate_changed || (!cfg_.multi_rate && sc.basic_rate() != old_basic_rate);
    const std::vector<int> over_budget =
        carried_over_budget(carried, touched, all_aps, rep);

    // cand_slot is slot_ap_ patched at the slots the last repair may have
    // changed.
    const auto diff_repair = [&] {
      changed = touched;
      for (const int r : repair_ws_.moved) {
        changed.push_back(row_slot[static_cast<size_t>(r)]);
      }
      std::sort(changed.begin(), changed.end());
      changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
      cand_slot = slot_ap_;
      cand_slot.resize(static_cast<size_t>(next.n_slots()), wlan::kNoAp);
      for (const int s : changed) {
        const int r = row_of(s);
        cand_slot[static_cast<size_t>(s)] = r >= 0 ? cand.ap_of(r) : wlan::kNoAp;
      }
      cc = count_changes(cand_slot, changed, next);
    };

    // --- 4. incremental repair. --------------------------------------------
    cand = repair(carried, dirty_rows, over_budget, /*polish=*/true, rep);
    diff_repair();

    // --- 5. bounded signaling: roll back to the minimal forced repair. -----
    if (cfg_.max_reassoc_per_epoch >= 0 && cc.voluntary > cfg_.max_reassoc_per_epoch) {
      rep.rolled_back = true;
      cand = repair(carried, unplaced, over_budget, /*polish=*/false, rep);
      diff_repair();
    }

    patch_loads(cand, cand_slot, changed, touched, all_aps);

    // --- 6. baseline refresh + degradation fallback. -----------------------
    ++epochs_since_refresh_;
    std::optional<assoc::Solution> full;
    if (cfg_.full_refresh_epochs > 0 && epochs_since_refresh_ >= cfg_.full_refresh_epochs &&
        sc.n_users() > 0) {
      flush_engine(next);
      full = solve_full(sc, row_slot, rep);
      baseline_load_ = full->loads.total_load;
      epochs_since_refresh_ = 0;
      rep.baseline_refreshed = true;
    }

    const bool no_baseline = baseline_load_ <= 0.0 && cand_loads.total_load > 0.0;
    const bool degraded =
        baseline_load_ > 0.0 &&
        cand_loads.total_load > baseline_load_ * (1.0 + cfg_.degradation_threshold);
    if (sc.n_users() > 0 && (no_baseline || degraded) && !rep.rolled_back) {
      if (!full) {
        flush_engine(next);
        full = solve_full(sc, row_slot, rep);
        baseline_load_ = full->loads.total_load;
        epochs_since_refresh_ = 0;
      }
      const double acceptable = baseline_load_ * (1.0 + cfg_.degradation_threshold);
      // Re-check against the *fresh* baseline: a stale baseline often
      // reports drift that a present-day full solve no longer confirms (the
      // instance itself got harder). Escalating then would pay handoffs for
      // nothing.
      const bool still_degraded = cand_loads.total_load > acceptable;

      // Escalation ladder. Step 1: a *warm* global polish — every user
      // movable, no gain floor (this runs rarely; when it does we want the
      // drift gone). Warm-starting from the current association recovers the
      // quality for a fraction of the handoffs a cold solution adoption
      // costs, because users already well-placed never move; stopping
      // halfway into the degradation band (rather than at a local optimum)
      // keeps the burst short without re-triggering next epoch. Both steps
      // may move anyone, so they diff every slot.
      if (still_degraded) {
        std::vector<int> all_slots(static_cast<size_t>(next.n_slots()));
        std::iota(all_slots.begin(), all_slots.end(), 0);
        assoc::LocalSearchParams lp;
        lp.multi_rate = cfg_.multi_rate;
        lp.target_total = baseline_load_ * (1.0 + 0.5 * cfg_.degradation_threshold);
        auto warm = assoc::local_search(sc, cand, lp, nullptr, &search_ws_);
        auto warm_slot = slot_association(warm.assoc, row_slot, next.n_slots());
        auto wc = count_changes(warm_slot, all_slots, next);
        const bool warm_within_cap = cfg_.max_reassoc_per_epoch < 0 ||
                                     wc.voluntary <= cfg_.max_reassoc_per_epoch;
        // Good enough = back inside the degradation band, or matching the
        // cold solution's quality (within 2%) — in the latter case adopting
        // the cold association instead would buy nothing but a network-wide
        // shuffle.
        const bool warm_good =
            warm.loads.total_load <= acceptable ||
            warm.loads.total_load <= full->loads.total_load * 1.02;
        if (warm_within_cap && warm.loads.total_load < cand_loads.total_load &&
            warm_good) {
          cand = std::move(warm.assoc);
          cand_slot = std::move(warm_slot);
          cand_loads = std::move(warm.loads);
          cc = wc;
          changed = std::move(all_slots);
          rep.warm_escalated = true;
        } else {
          // Step 2: adopt the cold full solution outright.
          auto full_slot = slot_association(full->assoc, row_slot, next.n_slots());
          const auto fc = count_changes(full_slot, all_slots, next);
          const bool within_cap = cfg_.max_reassoc_per_epoch < 0 ||
                                  fc.voluntary <= cfg_.max_reassoc_per_epoch;
          if (within_cap && full->loads.total_load < cand_loads.total_load) {
            cand = full->assoc;
            cand_slot = std::move(full_slot);
            cand_loads = full->loads;
            cc = fc;
            changed = std::move(all_slots);
            rep.used_full_solve = true;
          } else {
            rep.full_solve_rejected = true;
          }
        }
      }
    }
    if (sc.n_users() == 0) baseline_load_ = 0.0;
  } catch (...) {
    compact_sc_ = state_.to_scenario(&row_slot_);
    row_assoc_ = compact_association(slot_ap_, row_slot_);
    if (cfg_.k >= 2) {
      auto& served = multi_assoc_.user_aps;
      served.assign(row_slot_.size(), {});
      for (size_t r = 0; r < row_slot_.size(); ++r) {
        const auto s = static_cast<size_t>(row_slot_[r]);
        if (s < kconn_served_.size()) served[r] = kconn_served_[s];
      }
    }
    throw;
  }

  // --- 7. commit. ----------------------------------------------------------
  // Translate the epoch's deltas into kconn dirty marks first: the marking
  // needs the pre-commit state alongside the final candidate association.
  kconn_mark_dirty(next, cand_slot, changed);
  // Unserved after the epoch: only slots that were unserved, were touched or
  // changed AP can be (`changed` holds the touched slots).
  unserved_ = merge_unique(unserved_, changed);
  std::erase_if(unserved_, [&](int s) {
    return !next.slot(s).wants_service() || cand_slot[static_cast<size_t>(s)] != wlan::kNoAp;
  });
  state_ = std::move(next);
  slot_ap_ = std::move(cand_slot);
  row_assoc_ = std::move(cand);
  std::swap(loads_, loads_next_);
  ++epoch_index_;

  rep.reassociations = cc.total;
  rep.handoffs = cc.handoffs;
  rep.forced_reassociations = cc.forced;
  rep.voluntary_reassociations = cc.voluntary;
  refresh_multi(rep);
  sync_engine_stats(rep);
  report_state(rep);
  rep.drain_seconds = seconds_since(t0);
  tele_.record(rep);
  return rep;
}

}  // namespace wmcast::ctrl
