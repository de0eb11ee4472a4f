// Figure 9 reproduction: total multicast AP load, MLA-C / MLA-D vs SSA.
//   (a) vs number of users     (200 APs, 5 sessions)
//   (b) vs number of APs       (100 users, 5 sessions)
//   (c) vs number of sessions  (200 APs, 200 users)
//
// Paper's headline at 400 users: MLA-C 31.1% and MLA-D 30.1% below SSA.
//
// Run: ./fig9_total_load [--scenarios=40] [--seed=9] [--rate=1.0] [--csv=prefix]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"

using namespace wmcast;

namespace {

std::vector<bench::Algo> mla_algos() {
  return {
      {"SSA",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return assoc::ssa_associate(sc, rng).loads.total_load;
       }},
      {"MLA-C",
       [](const wlan::Scenario& sc, util::Rng&) {
         return assoc::centralized_mla(sc).loads.total_load;
       }},
      {"MLA-D",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return assoc::distributed_mla(sc, rng).loads.total_load;
       }},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "rate", "csv", "seed", "threads", "simd"});
  util::resolve_simd(args);
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 40);
  const uint64_t seed = args.get_u64("seed", 9);
  const double rate = args.get_double("rate", 1.0);
  const auto algos = mla_algos();

  bench::print_header("Figure 9: total AP load for multicast (MLA vs SSA)", scenarios,
                      seed, rate);

  // (a) total load vs number of users, 200 APs.
  {
    util::Table t(bench::summary_headers("users", algos));
    std::vector<util::Summary> at400;
    for (const int users : {50, 100, 150, 200, 250, 300, 350, 400}) {
      wlan::GeneratorParams p;
      p.n_aps = 200;
      p.n_users = users;
      p.session_rate_mbps = rate;
      const auto sums = bench::sweep_point(p, scenarios, seed, algos, &pool);
      t.add_row(bench::summary_row(std::to_string(users), sums));
      if (users == 400) at400 = sums;
    }
    std::printf("(a) total load vs users (200 APs, 5 sessions)\n");
    t.print();
    if (!at400.empty()) {
      std::printf("at 400 users: MLA-C %.1f%% below SSA (paper: 31.1%%), "
                  "MLA-D %.1f%% below SSA (paper: 30.1%%)\n\n",
                  util::percent_reduction(at400[1].avg, at400[0].avg),
                  util::percent_reduction(at400[2].avg, at400[0].avg));
    }
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_a.csv");
  }

  // (b) total load vs number of APs, 100 users.
  {
    util::Table t(bench::summary_headers("aps", algos));
    for (const int aps : {50, 75, 100, 125, 150, 175, 200}) {
      wlan::GeneratorParams p;
      p.n_aps = aps;
      p.n_users = 100;
      p.session_rate_mbps = rate;
      t.add_row(bench::summary_row(std::to_string(aps),
                                   bench::sweep_point(p, scenarios, seed, algos, &pool)));
    }
    std::printf("(b) total load vs APs (100 users, 5 sessions)\n");
    t.print();
    std::printf("\n");
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_b.csv");
  }

  // (c) total load vs number of sessions, 200 APs / 200 users.
  {
    util::Table t(bench::summary_headers("sessions", algos));
    for (const int sessions : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
      wlan::GeneratorParams p;
      p.n_aps = 200;
      p.n_users = 200;
      p.n_sessions = sessions;
      p.session_rate_mbps = rate;
      t.add_row(bench::summary_row(std::to_string(sessions),
                                   bench::sweep_point(p, scenarios, seed, algos, &pool)));
    }
    std::printf("(c) total load vs sessions (200 APs, 200 users)\n");
    t.print();
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_c.csv");
  }
  return 0;
}
