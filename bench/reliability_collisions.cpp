// Reliability experiment (paper §2's MAC-multicast context): 802.11
// broadcast is unreliable, and collision losses grow with channel
// contention. Using the slotted CSMA/CA simulator we measure, per
// association policy, the network-wide multicast delivery ratio and what a
// reliable MAC multicast scheme (leader-ACK / BMW / BMMM, first-order
// models) would cost in airtime on top — showing that association control
// and MAC reliability compose: better association = fewer collisions =
// cheaper reliability.
//
// Run: ./reliability_collisions [--scenarios=8] [--seed=71] [--channels=3]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/ext/interference.hpp"
#include "wmcast/mac/reliable.hpp"
#include "wmcast/sim/csma.hpp"

using namespace wmcast;

namespace {

/// Builds per-AP CSMA workloads from an association's transmissions.
std::vector<sim::ApWorkload> workloads_from(const wlan::Scenario& sc,
                                            const wlan::LoadReport& loads) {
  std::vector<sim::ApWorkload> aps(static_cast<size_t>(sc.n_aps()));
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int s = 0; s < sc.n_sessions(); ++s) {
      const double tx = loads.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(s)];
      if (tx > 0.0) {
        aps[static_cast<size_t>(a)].multicast.push_back(
            sim::MulticastFlow{sc.session_rate(s), tx});
      }
    }
  }
  return aps;
}

/// Mean receivers per transmitting (AP, session).
double mean_group_size(const wlan::Scenario& sc, const wlan::Association& assoc) {
  std::vector<std::vector<int>> members(
      static_cast<size_t>(sc.n_aps()),
      std::vector<int>(static_cast<size_t>(sc.n_sessions()), 0));
  for (int u = 0; u < sc.n_users(); ++u) {
    const int a = assoc.ap_of(u);
    if (a != wlan::kNoAp) ++members[static_cast<size_t>(a)][static_cast<size_t>(sc.user_session(u))];
  }
  double total = 0.0;
  int groups = 0;
  for (const auto& row : members) {
    for (const int m : row) {
      if (m > 0) {
        total += m;
        ++groups;
      }
    }
  }
  return groups > 0 ? total / groups : 0.0;
}

int run(const util::Args& args) {
  args.reject_unknown({"scenarios", "channels", "seed", "threads"});
  const int scenarios = args.get_int("scenarios", 8);
  const uint64_t seed = args.get_u64("seed", 71);
  const int channels = args.get_int("channels", 3);

  bench::print_header(
      "Reliability: multicast collision loss and reliable-MAC overhead\n"
      "per association policy (slotted CSMA/CA, " +
          std::to_string(channels) + " channels)",
      scenarios, seed, 1.0);

  wlan::GeneratorParams p;
  p.n_aps = 40;
  p.n_users = 200;
  p.n_sessions = 6;
  p.area_side_m = 500.0;
  p.session_rate_mbps = 1.0;

  struct PolicyStat {
    const char* name;
    util::RunningStat delivery, collisions, group, leader_mult, bmw_mult, batch_mult;
  };
  PolicyStat stats[] = {{"SSA", {}, {}, {}, {}, {}, {}},
                        {"MLA-C", {}, {}, {}, {}, {}, {}},
                        {"BLA-C", {}, {}, {}, {}, {}, {}}};

  util::Rng master(seed);
  for (int s = 0; s < scenarios; ++s) {
    util::Rng srng = master.fork();
    const auto sc = wlan::generate_scenario(p, srng);
    const auto graph = ext::build_conflict_graph(sc, 400.0);
    const auto ch = ext::assign_channels(graph, channels);
    const auto conflicts = sim::same_channel_conflicts(graph, ch.channel_of_ap);

    util::Rng arng = master.fork();
    const assoc::Solution sols[] = {assoc::ssa_associate(sc, arng),
                                    assoc::centralized_mla(sc),
                                    assoc::centralized_bla(sc)};
    for (size_t k = 0; k < std::size(sols); ++k) {
      sim::CsmaConfig cfg;
      cfg.horizon_s = 1.0;
      cfg.seed = seed + s;
      const auto r = sim::simulate_csma(workloads_from(sc, sols[k].loads), conflicts, cfg);
      stats[k].delivery.add(r.overall_mc_delivery);
      stats[k].collisions.add(static_cast<double>(r.collisions));
      const double loss = 1.0 - r.overall_mc_delivery;
      const double group = mean_group_size(sc, sols[k].assoc);
      stats[k].group.add(group);
      const int n = std::max(1, static_cast<int>(group + 0.5));
      stats[k].leader_mult.add(
          mac::reliable_airtime_multiplier(mac::ReliableScheme::kLeaderAck, n, loss));
      stats[k].bmw_mult.add(mac::reliable_airtime_multiplier(
          mac::ReliableScheme::kBmwUnicastChain, n, loss));
      stats[k].batch_mult.add(
          mac::reliable_airtime_multiplier(mac::ReliableScheme::kBatchAck, n, loss));
    }
  }

  util::Table t({"policy", "mc_delivery", "collisions", "group_size", "leaderACK_x",
                 "BMW_x", "BMMM_x"});
  for (const auto& st : stats) {
    t.add_row({st.name, util::fmt(st.delivery.mean(), 4), util::fmt(st.collisions.mean(), 0),
               util::fmt(st.group.mean(), 1), util::fmt(st.leader_mult.mean(), 2),
               util::fmt(st.bmw_mult.mean(), 2), util::fmt(st.batch_mult.mean(), 2)});
  }
  t.print();

  std::printf("\nmc_delivery: fraction of broadcast frames surviving collisions\n"
              "(plain 802.11 multicast). *_x columns: expected airtime multiplier\n"
              "if that reliable-MAC scheme ran on top, at the measured loss rate\n"
              "and group size. Association control raises raw delivery and cuts\n"
              "collision events roughly in half; with it, leader-ACK reliability\n"
              "also gets cheaper per frame, while the per-receiver schemes (BMW,\n"
              "BMMM) pay a higher multiplier on larger consolidated groups but\n"
              "amortize it over fewer transmissions. The layers compose (§2).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
