// Sensitivity study: the paper omits the multicast stream rate and uses
// uniform user placement / uniform session popularity. This bench sweeps the
// assumptions and reports how the three headline comparisons move:
//   (a) stream rate sweep     -> MLA/BLA reductions and MNU gain vs SSA,
//   (b) Zipf session popularity,
//   (c) hotspot user clustering.
// EXPERIMENTS.md cites these when comparing our magnitudes to the paper's.
//
// Run: ./sensitivity [--scenarios=15] [--seed=51]

#include <array>
#include <optional>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/ssa.hpp"

using namespace wmcast;

namespace {

struct HeadlineRow {
  double mla_reduction_pct;
  double bla_reduction_pct;
  double mnu_gain_pct;
};

/// The sweep's instances, generated once: per scenario the big (fig9/fig10)
/// and MNU (fig11) pair plus the four pre-forked streams in the historical
/// serial fork order (big scenario, big algos, mnu scenario, mnu algos) so
/// the results are identical at any thread count — see bench_common.hpp's
/// sweep_point.
struct ScenarioSet {
  // optional<> because Scenario has no public default constructor; every slot
  // is filled by generate_set before use.
  std::vector<std::optional<wlan::Scenario>> big, mnu;
  std::vector<std::array<util::Rng, 4>> streams;
};

ScenarioSet generate_set(const wlan::GeneratorParams& big,
                         const wlan::GeneratorParams& mnu_p, int scenarios,
                         uint64_t seed, util::ThreadPool* pool) {
  ScenarioSet set;
  util::Rng master(seed);
  set.streams.reserve(static_cast<size_t>(scenarios));
  for (int s = 0; s < scenarios; ++s) {
    set.streams.push_back(
        {master.fork(), master.fork(), master.fork(), master.fork()});
  }
  set.big.resize(static_cast<size_t>(scenarios));
  set.mnu.resize(static_cast<size_t>(scenarios));
  const auto build = [&](int s) {
    util::Rng big_rng = set.streams[static_cast<size_t>(s)][0];
    set.big[static_cast<size_t>(s)] = wlan::generate_scenario(big, big_rng);
    util::Rng mnu_rng = set.streams[static_cast<size_t>(s)][2];
    set.mnu[static_cast<size_t>(s)] = wlan::generate_scenario(mnu_p, mnu_rng);
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, scenarios, [&](int64_t b, int64_t e, int) {
      for (int64_t s = b; s < e; ++s) build(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < scenarios; ++s) build(s);
  }
  return set;
}

/// Runs the headline algorithms over the set. `stream_rate` (optional)
/// re-rates every session of both instances and rescales the MNU budget to
/// 0.04 * rate — the stream rate never enters scenario *generation* (no RNG
/// draws depend on it), so sweep (a) reuses one generated set across all its
/// rate points instead of regenerating identical geometry per point.
HeadlineRow measure_set(const ScenarioSet& set, const double* stream_rate,
                        util::ThreadPool* pool) {
  const int scenarios = static_cast<int>(set.big.size());
  struct Row {
    double ssa_total, mla_total, ssa_max, bla_max, ssa_served, mnu_served;
  };
  std::vector<Row> rows(static_cast<size_t>(scenarios));
  const auto run_scenario = [&](int s) {
    const auto& st = set.streams[static_cast<size_t>(s)];
    Row& r = rows[static_cast<size_t>(s)];
    const auto rerated = [&](const wlan::Scenario& base) {
      return base.with_session_rates(std::vector<double>(
          static_cast<size_t>(base.n_sessions()), *stream_rate));
    };
    {
      const wlan::Scenario& base = *set.big[static_cast<size_t>(s)];
      const wlan::Scenario sc = stream_rate != nullptr ? rerated(base) : base;
      util::Rng arng = st[1];
      const auto ssa = assoc::ssa_associate(sc, arng);
      r.ssa_total = ssa.loads.total_load;
      r.ssa_max = ssa.loads.max_load;
      r.mla_total = assoc::centralized_mla(sc).loads.total_load;
      r.bla_max = assoc::centralized_bla(sc).loads.max_load;
    }
    {
      const wlan::Scenario& base = *set.mnu[static_cast<size_t>(s)];
      const wlan::Scenario sc = stream_rate != nullptr
                                    ? rerated(base).with_budget(0.04 * *stream_rate)
                                    : base;
      util::Rng arng = st[3];
      r.ssa_served = assoc::ssa_associate(sc, arng).loads.satisfied_users;
      r.mnu_served = assoc::centralized_mnu(sc).loads.satisfied_users;
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, scenarios, [&](int64_t b, int64_t e, int) {
      for (int64_t s = b; s < e; ++s) run_scenario(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < scenarios; ++s) run_scenario(s);
  }

  util::RunningStat ssa_total, mla_total, ssa_max, bla_max, ssa_served, mnu_served;
  for (const Row& r : rows) {
    ssa_total.add(r.ssa_total);
    mla_total.add(r.mla_total);
    ssa_max.add(r.ssa_max);
    bla_max.add(r.bla_max);
    ssa_served.add(r.ssa_served);
    mnu_served.add(r.mnu_served);
  }
  return {util::percent_reduction(mla_total.mean(), ssa_total.mean()),
          util::percent_reduction(bla_max.mean(), ssa_max.mean()),
          util::percent_gain(mnu_served.mean(), ssa_served.mean())};
}

HeadlineRow measure(const wlan::GeneratorParams& big, const wlan::GeneratorParams& mnu_p,
                    int scenarios, uint64_t seed, util::ThreadPool* pool) {
  const ScenarioSet set = generate_set(big, mnu_p, scenarios, seed, pool);
  return measure_set(set, nullptr, pool);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown({"scenarios", "seed", "threads"});
  util::ThreadPool pool(bench::thread_count(args));
  const int scenarios = args.get_int("scenarios", 15);
  const uint64_t seed = args.get_u64("seed", 51);

  bench::print_header(
      "Sensitivity of the headline comparisons to unstated assumptions\n"
      "(paper headlines: MLA -31.1%, BLA -52.9%, MNU +36.9% vs SSA)",
      scenarios, seed, 1.0);

  wlan::GeneratorParams big;  // fig9/fig10 point: 200 APs, 400 users
  big.n_aps = 200;
  big.n_users = 400;
  wlan::GeneratorParams mnu_p;  // fig11 point: 100 APs, 400 users, 18 sessions
  mnu_p.n_aps = 100;
  mnu_p.n_users = 400;
  mnu_p.n_sessions = 18;
  mnu_p.load_budget = 0.04;

  {
    std::printf("(a) stream rate (budget for the MNU column scales with it)\n");
    util::Table t({"stream_Mbps", "MLA_reduction_pct", "BLA_reduction_pct",
                   "MNU_gain_pct"});
    // The stream rate changes no geometry and no RNG draw, so the instances
    // are generated once and re-rated per point (budget:cost ratio kept fixed
    // by measure_set's 0.04 * rate MNU budget).
    const auto set = generate_set(big, mnu_p, scenarios, seed, &pool);
    for (const double rate : {0.25, 0.5, 1.0, 2.0}) {
      const auto r = measure_set(set, &rate, &pool);
      t.add_row({util::fmt(rate, 2), util::fmt(r.mla_reduction_pct, 1),
                 util::fmt(r.bla_reduction_pct, 1), util::fmt(r.mnu_gain_pct, 1)});
    }
    t.print();
    std::printf("\n");
  }

  {
    std::printf("(b) session popularity (Zipf exponent; 0 = paper's uniform)\n");
    util::Table t({"zipf", "MLA_reduction_pct", "BLA_reduction_pct", "MNU_gain_pct"});
    for (const double z : {0.0, 0.8, 1.5}) {
      auto b = big;
      auto m = mnu_p;
      b.zipf_exponent = z;
      m.zipf_exponent = z;
      const auto r = measure(b, m, scenarios, seed, &pool);
      t.add_row({util::fmt(z, 1), util::fmt(r.mla_reduction_pct, 1),
                 util::fmt(r.bla_reduction_pct, 1), util::fmt(r.mnu_gain_pct, 1)});
    }
    t.print();
    std::printf("\n");
  }

  {
    std::printf("(c) user clustering (fraction of users in hotspots)\n");
    util::Table t({"hotspot_frac", "MLA_reduction_pct", "BLA_reduction_pct",
                   "MNU_gain_pct"});
    for (const double h : {0.0, 0.5, 0.9}) {
      auto b = big;
      auto m = mnu_p;
      b.hotspot_fraction = h;
      m.hotspot_fraction = h;
      const auto r = measure(b, m, scenarios, seed, &pool);
      t.add_row({util::fmt(h, 1), util::fmt(r.mla_reduction_pct, 1),
                 util::fmt(r.bla_reduction_pct, 1), util::fmt(r.mnu_gain_pct, 1)});
    }
    t.print();
  }

  std::printf("\nTakeaway: the association-control advantage is robust in sign\n"
              "everywhere; its magnitude grows with contention (clustered users,\n"
              "skewed popularity, mid-range stream rates), which plausibly\n"
              "accounts for the paper's larger headline percentages.\n");
  return 0;
}
