// Figure 11 reproduction: number of satisfied users vs per-AP multicast load
// budget; MNU-C / MNU-D vs SSA; 400 users, 100 APs, 18 sessions.
//
// Paper's headline at budget 0.04: MNU-C 36.9% and MNU-D 20.2% more
// satisfied users than SSA.
//
// Run: ./fig11_satisfied_users [--scenarios=40] [--seed=11] [--rate=1.0]
//                              [--csv=path]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"

using namespace wmcast;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "rate", "csv", "seed", "threads", "simd"});
  util::resolve_simd(args);
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 40);
  const uint64_t seed = args.get_u64("seed", 11);
  const double rate = args.get_double("rate", 1.0);

  const std::vector<bench::Algo> algos = {
      {"SSA",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return static_cast<double>(assoc::ssa_associate(sc, rng).loads.satisfied_users);
       }},
      {"MNU-C",
       [](const wlan::Scenario& sc, util::Rng&) {
         return static_cast<double>(assoc::centralized_mnu(sc).loads.satisfied_users);
       }},
      {"MNU-D",
       [](const wlan::Scenario& sc, util::Rng& rng) {
         return static_cast<double>(assoc::distributed_mnu(sc, rng).loads.satisfied_users);
       }},
  };

  bench::print_header(
      "Figure 11: satisfied users vs multicast load budget (MNU vs SSA)\n"
      "400 users, 100 APs, 18 sessions",
      scenarios, seed, rate);

  util::Table t(bench::summary_headers("budget", algos));
  std::vector<util::Summary> at004;
  for (const double budget : {0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10, 0.15, 0.20}) {
    wlan::GeneratorParams p;
    p.n_aps = 100;
    p.n_users = 400;
    p.n_sessions = 18;
    p.session_rate_mbps = rate;
    p.load_budget = budget;
    const auto sums = bench::sweep_point(p, scenarios, seed, algos, &pool);
    t.add_row(bench::summary_row(util::fmt(budget, 2), sums, 1));
    if (budget == 0.04) at004 = sums;
  }
  t.print();
  if (!at004.empty()) {
    std::printf("\nat budget 0.04: MNU-C %.1f%% more users than SSA (paper: 36.9%%), "
                "MNU-D %.1f%% more (paper: 20.2%%)\n",
                util::percent_gain(at004[1].avg, at004[0].avg),
                util::percent_gain(at004[2].avg, at004[0].avg));
  }
  if (args.has("csv")) t.write_csv(args.get("csv", ""));
  return 0;
}
