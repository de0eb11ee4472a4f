// Dynamics experiment (paper §3.1 quasi-static users; §1's argument that
// distributed control suits large networks because "centralized solutions
// will lead to more frequent changes in associations causing increased
// signaling"): an epoch-based churn study. Each epoch a batch of events from
// the shared controller trace generator (ctrl/trace — the same module that
// drives bench/ctrl_replay) lands, and we compare
//   * warm distributed resume (carry the association, let users re-decide),
//   * cold centralized re-solve (MLA-C from scratch each epoch),
// on solution quality AND on re-association signaling per epoch.
//
// Run: ./dynamics_churn [--epochs=20] [--seed=41] [--move=0.1] [--zap=0.05]
//                       [--walk=0] [--leave=0] [--join=0] [--rate-prob=0]
//                       [--json=out.json]

#include <fstream>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/core/engine.hpp"
#include "wmcast/ctrl/engine_source.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/sim/handoff.hpp"
#include "wmcast/util/json.hpp"

using namespace wmcast;

namespace {

struct SlotDelta {
  int changes = 0;   // any slot whose AP differs (incl. joins and drops)
  int handoffs = 0;  // AP -> different-AP moves (802.11 Reassociation frames)
};

SlotDelta slot_delta(const std::vector<int>& from, const std::vector<int>& to) {
  SlotDelta d;
  const size_t n = std::max(from.size(), to.size());
  for (size_t s = 0; s < n; ++s) {
    const int a = s < from.size() ? from[s] : wlan::kNoAp;
    const int b = s < to.size() ? to[s] : wlan::kNoAp;
    if (a == b) continue;
    ++d.changes;
    if (a != wlan::kNoAp && b != wlan::kNoAp) ++d.handoffs;
  }
  return d;
}

/// Advances a slot-space coverage engine from `prev` to `cur` with the same
/// dirty-group protocol the online controller uses: only APs whose candidate
/// sets could differ (old sets via the inverted index, new in-range APs by
/// position) are re-projected, from `cur`'s projection `sc` (rows mapped to
/// slots by `row_slot`). The engine's lifetime stats quantify how much of the
/// system each epoch actually rebuilds.
void advance_engine(core::CoverageEngine& eng, const ctrl::NetworkState& prev,
                    const ctrl::NetworkState& cur, const wlan::Scenario& sc,
                    const std::vector<int>& row_slot) {
  std::vector<int> dirty;
  std::vector<char> mark(static_cast<size_t>(cur.n_aps()), 0);
  const auto add = [&](int a) {
    if (mark[static_cast<size_t>(a)] == 0) {
      mark[static_cast<size_t>(a)] = 1;
      dirty.push_back(a);
    }
  };
  bool rate_changed = false;
  for (int t = 0; t < cur.n_sessions() && !rate_changed; ++t) {
    rate_changed = cur.session_rate(t) != prev.session_rate(t);
  }
  if (rate_changed) {
    for (int a = 0; a < cur.n_aps(); ++a) add(a);
  } else {
    for (int s = 0; s < cur.n_slots(); ++s) {
      if (s < prev.n_slots() && prev.slot(s) == cur.slot(s)) continue;
      if (s < eng.n_elements()) {
        eng.for_each_set_of(s, [&](int j) { add(eng.ap(j)); });
      }
      if (cur.slot(s).wants_service()) {
        for (int a = 0; a < cur.n_aps(); ++a) {
          if (cur.link_rate(a, s) > 0.0) add(a);
        }
      }
    }
  }
  if (dirty.empty() && cur.n_slots() <= eng.n_elements()) return;
  eng.update_groups(ctrl::StateSource(cur, sc, row_slot), dirty, true);
}

/// Pads slot-space snapshots to a common width so sim::account_disruptions
/// (which requires equal user counts) accepts traces with arrivals.
std::vector<wlan::Association> pad_snapshots(
    const std::vector<std::vector<int>>& snaps) {
  size_t width = 0;
  for (const auto& s : snaps) width = std::max(width, s.size());
  std::vector<wlan::Association> out;
  out.reserve(snaps.size());
  for (const auto& s : snaps) {
    wlan::Association a = wlan::Association::none(static_cast<int>(width));
    std::copy(s.begin(), s.end(), a.user_ap.begin());
    out.push_back(std::move(a));
  }
  return out;
}

int run(const util::Args& args) {
  args.reject_unknown({"seed", "threads", "epochs", "join", "leave",
                       "move", "walk", "zap", "rate-prob", "json"});
  const uint64_t seed = args.get_u64("seed", 41);

  ctrl::TraceParams tp;
  tp.epochs = args.get_int("epochs", 20);
  tp.move_fraction = args.get_double("move", 0.1);
  tp.walk_sigma_m = args.get_double("walk", 0.0);
  tp.zap_fraction = args.get_double("zap", 0.05);
  tp.leave_fraction = args.get_double("leave", 0.0);
  tp.join_fraction = args.get_double("join", 0.0);
  tp.rate_change_prob = args.get_double("rate-prob", 0.0);

  bench::print_header("Dynamics: association quality and signaling under churn",
                      tp.epochs, seed, 1.0);
  std::printf("100 APs / 300 users / 5 sessions; per epoch: %.0f%% of users move,\n"
              "%.0f%% zap channels; %d epochs (trace: ctrl/trace generator)\n\n",
              100 * tp.move_fraction, 100 * tp.zap_fraction, tp.epochs);

  wlan::GeneratorParams p;
  p.n_aps = 100;
  p.n_users = 300;
  util::Rng rng(seed);
  const auto sc0 = wlan::generate_scenario(p, rng);

  // The shared churn trace both this bench and ctrl_replay consume.
  auto state = ctrl::NetworkState::from_scenario(sc0);
  util::Rng trace_rng(seed + 3);
  const auto trace = ctrl::generate_churn_trace(state, tp, trace_rng);

  // Initial associations (slot space; row == slot while nobody has churned).
  util::Rng warm_rng(seed + 1);
  auto warm = assoc::distributed_mla(sc0, warm_rng);
  auto cold = assoc::centralized_mla(sc0);
  std::vector<int> warm_slot = warm.assoc.user_ap;
  std::vector<int> cold_slot = cold.assoc.user_ap;

  util::RunningStat warm_load, cold_load, warm_gap;
  util::RunningStat warm_signal, cold_signal, warm_hand, cold_hand, warm_rounds;
  std::vector<std::vector<int>> warm_snaps{warm_slot};
  std::vector<std::vector<int>> cold_snaps{cold_slot};

  // Slot-space engine kept current across the trace via the dirty-group
  // protocol; its stats report the rebuild-vs-repair split at the end.
  core::CoverageEngine eng;
  {
    std::vector<int> row_slot;
    const auto sc = state.to_scenario(&row_slot);
    eng.build_full(ctrl::StateSource(state, sc, row_slot), true);
  }

  util::Table t({"epoch", "warm_total", "cold_total", "warm_reassoc", "cold_reassoc",
                 "warm_rounds"});
  for (int e = 0; e < trace.n_epochs(); ++e) {
    const ctrl::NetworkState prev = state;
    for (const auto& ev : trace.epochs[static_cast<size_t>(e)]) state.apply(ev);
    std::vector<int> row_slot;
    const auto sc = state.to_scenario(&row_slot);
    advance_engine(eng, prev, state, sc, row_slot);

    // Warm: carry every still-valid association, resume the distributed engine.
    wlan::Association carried = wlan::Association::none(sc.n_users());
    for (int r = 0; r < sc.n_users(); ++r) {
      const int s = row_slot[static_cast<size_t>(r)];
      const int old = s < static_cast<int>(warm_slot.size()) ? warm_slot[static_cast<size_t>(s)]
                                                             : wlan::kNoAp;
      if (old != wlan::kNoAp && state.link_rate(old, s) > 0.0) {
        carried.user_ap[static_cast<size_t>(r)] = old;
      }
    }
    assoc::DistributedParams dp;
    dp.initial = carried;
    util::Rng r1 = rng.fork();
    auto resumed = assoc::distributed_associate(sc, r1, dp);
    resumed.algorithm = "MLA-D(warm)";
    const auto new_warm = ctrl::slot_association(resumed.assoc, row_slot, state.n_slots());
    const auto wd = slot_delta(warm_slot, new_warm);

    // Cold: centralized re-solve from scratch.
    const auto fresh = assoc::centralized_mla(sc);
    const auto new_cold = ctrl::slot_association(fresh.assoc, row_slot, state.n_slots());
    const auto cd = slot_delta(cold_slot, new_cold);

    warm_load.add(resumed.loads.total_load);
    cold_load.add(fresh.loads.total_load);
    warm_gap.add(util::percent_gain(resumed.loads.total_load, fresh.loads.total_load));
    warm_signal.add(wd.changes);
    cold_signal.add(cd.changes);
    warm_hand.add(wd.handoffs);
    cold_hand.add(cd.handoffs);
    warm_rounds.add(resumed.rounds);

    t.add_row({std::to_string(e), util::fmt(resumed.loads.total_load, 2),
               util::fmt(fresh.loads.total_load, 2), std::to_string(wd.changes),
               std::to_string(cd.changes), std::to_string(resumed.rounds)});

    warm_slot = new_warm;
    cold_slot = new_cold;
    warm_snaps.push_back(warm_slot);
    cold_snaps.push_back(cold_slot);
  }
  t.print();

  // Stream-disruption accounting (SyncScan-style handoff costs).
  const auto warm_disruption = sim::account_disruptions(pad_snapshots(warm_snaps));
  const auto cold_disruption = sim::account_disruptions(pad_snapshots(cold_snaps));
  std::printf("\nstream disruption (0.3 s per handoff, 1 s per rejoin):\n");
  std::printf("  warm distributed: %.1f s total, worst user %.1f s\n",
              warm_disruption.total_disruption_s,
              warm_disruption.worst_user_disruption_s);
  std::printf("  cold centralized: %.1f s total, worst user %.1f s\n",
              cold_disruption.total_disruption_s,
              cold_disruption.worst_user_disruption_s);

  const double ratio = cold_signal.mean() / std::max(warm_signal.mean(), 1.0);
  std::printf("\naverages over %d epochs:\n", tp.epochs);
  std::printf("  total load: warm distributed %.2f vs cold centralized %.2f "
              "(+%.1f%%)\n", warm_load.mean(), cold_load.mean(), warm_gap.mean());
  std::printf("  re-associations per epoch: warm %.1f vs cold %.1f (%.1fx less "
              "signaling)\n", warm_signal.mean(), cold_signal.mean(), ratio);
  std::printf("  warm convergence: %.1f rounds per epoch\n", warm_rounds.mean());
  const auto& es = eng.stats();
  std::printf("  engine: %llu incremental updates rebuilt %llu AP candidate sets "
              "(of %d per-epoch full rebuilds the cold path implies); %llu sets "
              "rebuilt, %llu retired, %llu compactions\n",
              static_cast<unsigned long long>(es.incremental_updates),
              static_cast<unsigned long long>(es.groups_rebuilt),
              state.n_aps() * trace.n_epochs(),
              static_cast<unsigned long long>(es.sets_rebuilt),
              static_cast<unsigned long long>(es.sets_retired),
              static_cast<unsigned long long>(es.compactions));
  std::printf("\nThe distributed resume stays within a few percent of the cold\n"
              "centralized optimum while re-associating far fewer users — the\n"
              "paper's case for distributed control in large WLANs, quantified.\n");

  const std::string json_out = args.get("json", "");
  if (!json_out.empty()) {
    util::Json j = util::Json::object();
    j.set("bench", std::string("dynamics_churn"));
    j.set("epochs", static_cast<int64_t>(tp.epochs));
    j.set("seed", static_cast<int64_t>(seed));
    j.set("move_fraction", tp.move_fraction);
    j.set("walk_sigma_m", tp.walk_sigma_m);
    j.set("zap_fraction", tp.zap_fraction);
    j.set("leave_fraction", tp.leave_fraction);
    j.set("join_fraction", tp.join_fraction);
    j.set("warm_total_load", warm_load.mean());
    j.set("cold_total_load", cold_load.mean());
    j.set("load_gap_pct", warm_gap.mean());
    j.set("warm_reassoc_per_epoch", warm_signal.mean());
    j.set("cold_reassoc_per_epoch", cold_signal.mean());
    j.set("warm_handoffs_per_epoch", warm_hand.mean());
    j.set("cold_handoffs_per_epoch", cold_hand.mean());
    j.set("signaling_ratio", ratio);
    j.set("warm_rounds_per_epoch", warm_rounds.mean());
    j.set("warm_disruption_s", warm_disruption.total_disruption_s);
    j.set("cold_disruption_s", cold_disruption.total_disruption_s);
    util::Json ej = util::Json::object();
    ej.set("full_builds", static_cast<int64_t>(es.full_builds));
    ej.set("incremental_updates", static_cast<int64_t>(es.incremental_updates));
    ej.set("groups_rebuilt", static_cast<int64_t>(es.groups_rebuilt));
    ej.set("sets_rebuilt", static_cast<int64_t>(es.sets_rebuilt));
    ej.set("sets_retired", static_cast<int64_t>(es.sets_retired));
    ej.set("compactions", static_cast<int64_t>(es.compactions));
    ej.set("group_rebuild_fraction",
           static_cast<double>(es.groups_rebuilt) /
               std::max(1, state.n_aps() * trace.n_epochs()));
    j.set("engine", std::move(ej));
    std::ofstream f(json_out);
    f << j.dump(2) << "\n";
    std::printf("  json written to %s\n", json_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
