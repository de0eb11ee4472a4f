// Shared sweep harness for the figure-reproduction benches. Each data point
// follows the paper's §7 methodology: N random scenarios (default 40), the
// same scenarios fed to every algorithm, reporting min/avg/max.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "wmcast/util/cli.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/table.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::bench {

/// The one bench entry point: `main` forwards here. A malformed or unknown
/// flag — std::invalid_argument from util::Args, its getters or
/// reject_unknown — prints "<binary>: <message>" on one line and exits 1
/// instead of aborting on an uncaught exception.
inline int run_main(int argc, char** argv, int (*body)(const util::Args&)) {
  try {
    return body(util::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    const char* slash = std::strrchr(argv[0], '/');
    std::fprintf(stderr, "%s: %s\n", slash ? slash + 1 : argv[0], e.what());
    return 1;
  }
}

/// Monotonic wall clock in seconds, shared by every bench's timing arms.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process peak RSS. A high-water mark: once a large arm has been resident,
/// every later reading reports it — benches must sample after each arm, in
/// ascending footprint order, for the per-arm numbers to mean anything.
/// Reported as the informational "peak_rss_bytes" field of the
/// wmcast-microbench/v1 schema (tools/bench_guard ignores it for gating).
inline size_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss) * 1024;  // Linux reports KB
}

/// One algorithm under test: name + metric extractor. The metric receives the
/// scenario and a per-(scenario, algorithm) rng stream.
struct Algo {
  std::string name;
  std::function<double(const wlan::Scenario&, util::Rng&)> metric;
};

/// Runs every algorithm on `n_scenarios` scenarios drawn from `params` and
/// returns one Summary per algorithm (paper's error-bar triple).
///
/// Each scenario is generated ONCE per sweep point and shared by every
/// algorithm — generation (grid build + CSR rows) dominates at large n_users,
/// so benches must never regenerate identical geometry per algorithm or per
/// derived sweep value (sensitivity's stream-rate sweep re-rates copies via
/// Scenario::with_session_rates instead).
///
/// Every per-(scenario, algorithm) rng stream is forked from the master
/// up front, in the exact order the historical serial loop forked them
/// (scenario s's generator stream, then one stream per algorithm) — so the
/// streams, and hence every published figure number, are independent of how
/// the scenarios are later scheduled. With a pool the scenarios run across
/// its lanes; per-scenario values land in slots indexed by (scenario,
/// algorithm) and are reduced in that order, making the summaries bitwise
/// identical at any thread count.
inline std::vector<util::Summary> sweep_point(const wlan::GeneratorParams& params,
                                              int n_scenarios, uint64_t seed,
                                              const std::vector<Algo>& algos,
                                              util::ThreadPool* pool = nullptr) {
  const size_t n_algos = algos.size();
  util::Rng master(seed);
  std::vector<util::Rng> streams;
  streams.reserve(static_cast<size_t>(n_scenarios) * (n_algos + 1));
  for (int s = 0; s < n_scenarios; ++s) {
    streams.push_back(master.fork());  // scenario generator stream
    for (size_t a = 0; a < n_algos; ++a) streams.push_back(master.fork());
  }

  std::vector<double> value(static_cast<size_t>(n_scenarios) * n_algos, 0.0);
  const auto run_scenario = [&](int s) {
    const size_t base = static_cast<size_t>(s) * (n_algos + 1);
    util::Rng scenario_rng = streams[base];
    const auto sc = wlan::generate_scenario(params, scenario_rng);
    for (size_t a = 0; a < n_algos; ++a) {
      util::Rng algo_rng = streams[base + 1 + a];
      value[static_cast<size_t>(s) * n_algos + a] = algos[a].metric(sc, algo_rng);
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(0, n_scenarios, [&](int64_t b, int64_t e, int) {
      for (int64_t s = b; s < e; ++s) run_scenario(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < n_scenarios; ++s) run_scenario(s);
  }

  std::vector<util::RunningStat> stats(n_algos);
  for (int s = 0; s < n_scenarios; ++s) {
    for (size_t a = 0; a < n_algos; ++a) {
      stats[a].add(value[static_cast<size_t>(s) * n_algos + a]);
    }
  }
  std::vector<util::Summary> out;
  out.reserve(n_algos);
  for (const auto& st : stats) out.push_back(util::summarize(st));
  return out;
}

/// The sweep's worker-thread count: `--threads=N`, else WMCAST_THREADS, else 1.
inline int thread_count(const util::Args& args) { return util::resolve_threads(args); }

/// Standard bench header: prints the sweep configuration so runs are
/// reproducible from the log alone. The thread count is left out: the tables
/// are the same bytes at any --threads.
inline void print_header(const std::string& title, int n_scenarios, uint64_t seed,
                         double session_rate) {
  std::printf("%s\n", title.c_str());
  std::printf("methodology: %d random scenarios per point (paper: 40), seed %llu,\n",
              n_scenarios, static_cast<unsigned long long>(seed));
  std::printf("  802.11a rates (Table 1), stream rate %.2f Mbps per session\n\n",
              session_rate);
}

/// Columns "<name>_min <name>_avg <name>_max" for each algorithm.
inline std::vector<std::string> summary_headers(const std::string& x_name,
                                                const std::vector<Algo>& algos) {
  std::vector<std::string> h{x_name};
  for (const auto& a : algos) {
    h.push_back(a.name + "_min");
    h.push_back(a.name + "_avg");
    h.push_back(a.name + "_max");
  }
  return h;
}

inline std::vector<std::string> summary_row(const std::string& x,
                                            const std::vector<util::Summary>& sums,
                                            int precision = 3) {
  std::vector<std::string> row{x};
  for (const auto& s : sums) {
    row.push_back(util::fmt(s.min, precision));
    row.push_back(util::fmt(s.avg, precision));
    row.push_back(util::fmt(s.max, precision));
  }
  return row;
}

}  // namespace wmcast::bench
