// Scale bench for the sparse scenario pipeline (DESIGN.md §11): measures
// grid-indexed CSR construction time and memory against the pre-sparse dense
// [ap][user] build at large user counts, up to million-user instances.
//
// The area side is derived from the AP count so the mean candidate degree
// (APs in range per user) stays fixed as the instance grows — the regime the
// sparse pipeline targets: n_links grows linearly in users, while the dense
// matrix grows as users x APs.
//
// Run: ./scale_build [--users=100000] [--aps=2000] [--sessions=8]
//                    [--degree=20] [--seed=71] [--threads=N] [--dense]
//                    [--solve] [--k=1] [--require-speedup=0] [--json=out.json]
//                    [--simd=auto|scalar|avx2]
//
//  --dense             also run the dense reference build (same instance) and
//                      verify the two scenarios are identical
//  --solve             run centralized MLA end-to-end on the built scenario,
//                      then construct an online AssociationController on it
//                      at --threads (the ctrl_construct arm: engine build
//                      from the projection + initial full solve)
//  --k=K               with --solve and K >= 2, add an mla_solve_k2 arm: the
//                      same MLA solve plus the k-connectivity augmentation
//                      (DESIGN.md §15), so the overlay's incremental cost is
//                      guarded separately from the base solve
//  --require-speedup=K exit 1 unless sparse beats dense by >= K in BOTH build
//                      time and model bytes (implies --dense); CI pins K=10
//                      at 100k users / 2k APs
//  --json              wmcast-microbench/v1 document for tools/bench_guard;
//                      entries carry "bytes" (deterministic memory_bytes()
//                      accounting) and informational "peak_rss_bytes"
//
// Order matters for RSS: the sparse arm runs before the dense arm because
// Linux ru_maxrss is a high-water mark — once the dense matrix has been
// resident, every later reading would report it.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/json.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/table.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/scenario.hpp"

using namespace wmcast;

using wmcast::bench::now_seconds;
using wmcast::bench::peak_rss_bytes;

namespace {

struct Arm {
  std::string name;
  double seconds = 0.0;
  size_t model_bytes = 0;   // deterministic: what the representation stores
  size_t peak_rss = 0;      // informational: process high-water mark after it
};

int run(const util::Args& args) {
  args.reject_unknown({"users", "aps", "sessions", "degree", "seed", "threads",
                       "dense", "solve", "k", "require-speedup", "json", "simd"});
  util::resolve_simd(args);
  const int n_users = args.get_int("users", 100000);
  const int n_aps = args.get_int("aps", 2000);
  const int n_sessions = args.get_int("sessions", 8);
  const double degree = args.get_double("degree", 20.0);
  const uint64_t seed = args.get_u64("seed", 71);
  const double require_speedup = args.get_double("require-speedup", 0.0);
  const bool run_solve = args.get_bool("solve", false);
  const int k = args.get_int("k", 1);
  const bool run_dense = args.get_bool("dense", false) || require_speedup > 0.0;
  util::ThreadPool pool(util::resolve_threads(args));

  const wlan::RateTable table = wlan::RateTable::ieee80211a();
  const double r = table.range_m();
  // degree = (n_aps / side^2) * pi * r^2  =>  side fixing the mean AP degree.
  const double side =
      std::sqrt(static_cast<double>(n_aps) * 3.14159265358979323846 * r * r / degree);

  std::printf("scale_build: %d users, %d APs, side %.0f m (target degree %.0f), "
              "threads %d\n\n", n_users, n_aps, side, degree, pool.size());

  // Draw the instance once; both arms consume identical inputs.
  util::Rng rng(seed);
  std::vector<wlan::Point> ap_pos(static_cast<size_t>(n_aps));
  for (auto& p : ap_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  std::vector<wlan::Point> user_pos(static_cast<size_t>(n_users));
  for (auto& p : user_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  std::vector<int> user_session(static_cast<size_t>(n_users));
  for (auto& s : user_session) s = rng.next_int(n_sessions);
  const std::vector<double> session_rates(static_cast<size_t>(n_sessions), 1.0);

  std::vector<Arm> arms;

  double t0 = now_seconds();
  const wlan::Scenario sparse = wlan::Scenario::from_geometry(
      ap_pos, user_pos, user_session, session_rates, table, 0.9, &pool);
  arms.push_back({"sparse_build", now_seconds() - t0, sparse.memory_bytes(),
                  peak_rss_bytes()});
  std::printf("sparse: %lld links (%.1f per user), basic rate %.0f Mbps\n",
              static_cast<long long>(sparse.n_links()),
              sparse.n_users() > 0
                  ? static_cast<double>(sparse.n_links()) / sparse.n_users()
                  : 0.0,
              sparse.basic_rate());

  double solve_seconds = 0.0;
  if (run_solve) {
    t0 = now_seconds();
    const auto sol = assoc::centralized_mla(sparse);
    solve_seconds = now_seconds() - t0;
    arms.push_back({"mla_solve", solve_seconds, sparse.memory_bytes(),
                    peak_rss_bytes()});
    std::printf("MLA: total load %.3f, %.2fs\n", sol.loads.total_load, solve_seconds);

    if (k >= 2) {
      assoc::CentralizedParams kp;
      kp.k = k;
      t0 = now_seconds();
      const auto ksol = assoc::centralized_mla(sparse, kp);
      const double k_seconds = now_seconds() - t0;
      arms.push_back({"mla_solve_k2", k_seconds, sparse.memory_bytes(),
                      peak_rss_bytes()});
      std::printf("MLA k=%d: %d multi-served users, mean effective rate %.2f Mbps, "
                  "%.2fs (+%.0f%% over k=1)\n",
                  k, ksol.multi_loads.multi_served_users,
                  ksol.multi_loads.mean_effective_rate, k_seconds,
                  solve_seconds > 0.0 ? (k_seconds / solve_seconds - 1.0) * 100.0 : 0.0);
    }

    ctrl::ControllerConfig cfg;
    cfg.threads = pool.size();
    t0 = now_seconds();
    const ctrl::AssociationController controller(sparse, cfg);
    const double construct_seconds = now_seconds() - t0;
    arms.push_back({"ctrl_construct", construct_seconds, sparse.memory_bytes(),
                    peak_rss_bytes()});
    const uint64_t offered = controller.engine().stats().links_offered;
    std::printf("controller: constructed in %.2fs, engine offered %llu links\n",
                construct_seconds, static_cast<unsigned long long>(offered));
    if (offered != static_cast<uint64_t>(sparse.n_links())) {
      std::fprintf(stderr, "scale_build: the controller's engine build offered %llu "
                           "links, the scenario has %lld\n",
                   static_cast<unsigned long long>(offered),
                   static_cast<long long>(sparse.n_links()));
      return 1;
    }
  }

  if (run_dense) {
    t0 = now_seconds();
    const wlan::Scenario dense = wlan::Scenario::from_geometry_dense(
        ap_pos, user_pos, user_session, session_rates, table, 0.9);
    const double dense_seconds = now_seconds() - t0;
    // The dense model's storage is the full matrix the old representation
    // held; the sparse pipeline's win is never having materialized it.
    const size_t dense_bytes = static_cast<size_t>(n_aps) *
                               static_cast<size_t>(n_users) * sizeof(double);
    arms.push_back({"dense_build", dense_seconds, dense_bytes, peak_rss_bytes()});

    if (sparse.n_links() != dense.n_links() ||
        sparse.basic_rate() != dense.basic_rate()) {
      std::fprintf(stderr, "scale_build: sparse/dense builds disagree "
                           "(%lld vs %lld links)\n",
                   static_cast<long long>(sparse.n_links()),
                   static_cast<long long>(dense.n_links()));
      return 1;
    }
  }

  util::Table t({"arm", "seconds", "model_MB", "peak_rss_MB"});
  for (const Arm& a : arms) {
    t.add_row({a.name, util::fmt(a.seconds, 3),
               util::fmt(static_cast<double>(a.model_bytes) / (1024.0 * 1024.0), 1),
               util::fmt(static_cast<double>(a.peak_rss) / (1024.0 * 1024.0), 1)});
  }
  t.print();

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    const std::string size_tag =
        "u" + std::to_string(n_users) + "_a" + std::to_string(n_aps);
    util::Json doc = util::Json::object();
    doc.set("schema", "wmcast-microbench/v1");
    doc.set("threads", pool.size());
    util::Json benches = util::Json::array();
    for (const Arm& a : arms) {
      util::Json b = util::Json::object();
      b.set("name", "scale_build/" + a.name + "/" + size_tag);
      b.set("real_time_ns", a.seconds * 1e9);
      b.set("iterations", 1);
      b.set("bytes", static_cast<int64_t>(a.model_bytes));
      b.set("peak_rss_bytes", static_cast<int64_t>(a.peak_rss));
      benches.push(std::move(b));
    }
    doc.set("benchmarks", std::move(benches));
    std::ofstream f(json_path);
    if (!f) {
      std::fprintf(stderr, "scale_build: cannot write %s\n", json_path.c_str());
      return 1;
    }
    f << doc.dump(2) << "\n";
    std::printf("\njson written to %s\n", json_path.c_str());
  }

  if (require_speedup > 0.0) {
    const Arm& s = arms.front();
    const Arm& d = arms.back();  // dense ran last
    const double time_ratio = s.seconds > 0.0 ? d.seconds / s.seconds : 0.0;
    const double bytes_ratio =
        s.model_bytes > 0 ? static_cast<double>(d.model_bytes) / s.model_bytes : 0.0;
    std::printf("\nsparse vs dense: %.1fx build time, %.1fx model bytes "
                "(required >= %.1fx)\n", time_ratio, bytes_ratio, require_speedup);
    if (time_ratio < require_speedup || bytes_ratio < require_speedup) {
      std::fprintf(stderr, "scale_build: speedup requirement not met\n");
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_main(argc, argv, run); }
