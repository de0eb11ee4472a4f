// Figure 10 reproduction: maximum multicast load among APs, BLA-C / BLA-D
// vs SSA.
//   (a) vs number of users     (200 APs, 5 sessions)
//   (b) vs number of APs       (100 users, 5 sessions)
//   (c) vs number of sessions  (200 APs, 200 users)
//
// Paper's headline at 400 users: BLA-C 52.9% and BLA-D 50.5% below SSA;
// unlike SSA, the BLA curves grow slowly with users/sessions.
//
// Run: ./fig10_max_load [--scenarios=40] [--seed=10] [--rate=1.0] [--csv=prefix]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"

using namespace wmcast;

namespace {

std::vector<bench::Algo> bla_algos() {
  return {
      {"SSA",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return assoc::ssa_associate(sc, rng).loads.max_load;
       }},
      {"BLA-C",
       [](const wlan::Scenario& sc, util::Rng&) {
         return assoc::centralized_bla(sc).loads.max_load;
       }},
      {"BLA-D",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return assoc::distributed_bla(sc, rng).loads.max_load;
       }},
  };
}

int run(const util::Args& args) {
  args.reject_unknown({"scenarios", "rate", "csv", "seed", "threads"});
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 40);
  const uint64_t seed = args.get_u64("seed", 10);
  const double rate = args.get_double("rate", 1.0);
  const auto algos = bla_algos();

  bench::print_header("Figure 10: maximum AP load for multicast (BLA vs SSA)", scenarios,
                      seed, rate);

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
    std::printf("(a) max load vs users (200 APs, 5 sessions)\n");
    t.print();
    if (!at400.empty()) {
      std::printf("at 400 users: BLA-C %.1f%% below SSA (paper: 52.9%%), "
                  "BLA-D %.1f%% below SSA (paper: 50.5%%)\n\n",
                  util::percent_reduction(at400[1].avg, at400[0].avg),
                  util::percent_reduction(at400[2].avg, at400[0].avg));
    }
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_a.csv");
  }

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
    std::printf("(b) max load vs APs (100 users, 5 sessions)\n");
    t.print();
    std::printf("\n");
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_b.csv");
  }

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
    std::printf("(c) max load vs sessions (200 APs, 200 users)\n");
    t.print();
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_c.csv");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
