// Motivation experiment (paper §1/§3.2, not a numbered figure): multicast
// services "must minimally impact the existing unicast services". Using the
// frame-level channel simulator we measure, end to end, the unicast goodput
// a fixed population of saturated clients gets under each multicast
// association policy — the airtime freed by MLA/BLA turns into bytes.
//
// Run: ./motivation_unicast_impact [--scenarios=10] [--seed=31] [--rate=1.0]
//                                  [--clients=150]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/sim/unicast_impact.hpp"

using namespace wmcast;

namespace {

int run(const util::Args& args) {
  args.reject_unknown({"scenarios", "rate", "clients", "seed", "threads"});
  const int scenarios = args.get_int("scenarios", 10);
  const uint64_t seed = args.get_u64("seed", 31);
  const double rate = args.get_double("rate", 1.0);
  const int clients = args.get_int("clients", 150);

  bench::print_header(
      "Motivation: unicast goodput under multicast association policies\n"
      "(frame-level channel simulation; saturated downlink clients)",
      scenarios, seed, rate);

  wlan::GeneratorParams p;
  p.n_aps = 60;
  p.n_users = 240;
  p.n_sessions = 6;
  p.area_side_m = 600.0;
  p.session_rate_mbps = rate;

  std::printf("60 APs / 600x600 m, 240 multicast users, 6 sessions, %d unicast "
              "clients\n\n", clients);

  struct PolicyStat {
    const char* name;
    util::RunningStat goodput, worst, busy;
  };
  PolicyStat stats[] = {{"no-multicast", {}, {}, {}},
                        {"SSA", {}, {}, {}},
                        {"MLA-C", {}, {}, {}},
                        {"BLA-C", {}, {}, {}},
                        {"MLA-D", {}, {}, {}}};

  util::Rng master(seed);
  for (int s = 0; s < scenarios; ++s) {
    util::Rng srng = master.fork();
    const auto sc = wlan::generate_scenario(p, srng);
    const uint64_t placement_seed = master.fork().next_u64();

    util::Rng ssa_rng = master.fork();
    util::Rng mlad_rng = master.fork();
    const wlan::Association assocs[] = {
        wlan::Association::none(sc.n_users()),
        assoc::ssa_associate(sc, ssa_rng).assoc,
        assoc::centralized_mla(sc).assoc,
        assoc::centralized_bla(sc).assoc,
        assoc::distributed_mla(sc, mlad_rng).assoc,
    };
    for (size_t k = 0; k < std::size(assocs); ++k) {
      sim::UnicastImpactConfig cfg;
      cfg.n_unicast_clients = clients;
      cfg.channel.horizon_s = 2.0;
      util::Rng place_rng(placement_seed);  // identical placement per policy
      const auto r = sim::measure_unicast_impact(sc, assocs[k], cfg, place_rng);
      stats[k].goodput.add(r.total_goodput_mbps);
      stats[k].worst.add(r.worst_client_goodput_mbps);
      stats[k].busy.add(r.max_multicast_busy);
    }
  }

  util::Table t({"policy", "unicast_goodput_Mbps", "vs_no_multicast_pct",
                 "worst_client_Mbps", "max_mc_busy"});
  const double baseline = stats[0].goodput.mean();
  for (const auto& s : stats) {
    t.add_row({s.name, util::fmt(s.goodput.mean(), 1),
               util::fmt(util::percent_reduction(s.goodput.mean(), baseline), 1),
               util::fmt(s.worst.mean(), 2), util::fmt(s.busy.mean(), 3)});
  }
  t.print();

  std::printf("\nunicast goodput recovered by association control vs SSA:\n");
  std::printf("  MLA-C +%.1f%%   BLA-C +%.1f%%   MLA-D +%.1f%%\n",
              util::percent_gain(stats[2].goodput.mean(), stats[1].goodput.mean()),
              util::percent_gain(stats[3].goodput.mean(), stats[1].goodput.mean()),
              util::percent_gain(stats[4].goodput.mean(), stats[1].goodput.mean()));
  std::printf("(the 'vs_no_multicast' column is the total cost of offering the\n"
              " streams at all — the paper's 'minimal impact' criterion)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
