// wmcast_cli — command-line driver for the library's full pipeline:
//
//   wmcast_cli generate  --out=sc.txt [--aps=200 --users=400 --sessions=5
//                        --rate=1.0 --budget=0.9 --area=1095.445 --seed=1
//                        --zipf=0 --hotspot=0]
//   wmcast_cli info      --scenario=sc.txt
//   wmcast_cli solve     --scenario=sc.txt --algorithm=mla-c
//                        [--seed=1 --assoc-out=a.txt --basic-rate --k=1]
//   wmcast_cli eval      --scenario=sc.txt --assoc=a.txt
//   wmcast_cli exact     --scenario=sc.txt --problem=mla [--budget=0.9
//                        --time-limit=10]
//   wmcast_cli export-lp --scenario=sc.txt --problem=mnu --out=m.lp
//                        [--budget=0.9]
//   wmcast_cli render    --scenario=sc.txt [--assoc=a.txt] --out=map.svg
//                        [--ranges]
//   wmcast_cli replay    [--scenario=sc.txt | --aps=100 --users=300
//                        --scenario-seed=1] [--trace=t.txt | --epochs=20
//                        --move=0.1 --walk=40 --zap=0.05 --leave=0.02
//                        --join=0.02 --rate-prob=0 --trace-seed=7]
//                        [--solver=mla-c --threshold=0.1 --refresh=10
//                        --max-reassoc=-1 --no-admission --seed=1 --threads=N
//                        --k=1 --telemetry=tele.json --trace-out=t.txt --quiet]
//   wmcast_cli serve     [--scenario=sc.txt | --aps=100 --users=300
//                        --area=1095.445 --scenario-seed=1]
//                        [--profile=mixed --duration=10
//                        --rate=1000 --workload-seed=1 | trace on stdin,
//                        streamed incrementally and paced at --rate]
//                        [--batch-max=256 --staleness-ms=50 --queue-cap=8192
//                        --policy=reject|shed --no-coalesce --modeled
//                        --pipeline --solver=mla-c --seed=1 --threads=N
//                        --k=1 --telemetry=tele.json --trace-out=t.txt --json
//                        --quiet]
//   wmcast_cli chaos     [--seed=1 --scenarios=20 --profile=mixed --threads=4
//                        --solver=mla-c --aps=16 --users=60 --sessions=4
//                        --area=400 --epochs=10 --out-dir=repros --no-shrink
//                        --json --quiet] | --repro=f.repro
//
// `chaos` runs the deterministic fault-injection campaign (chaos/campaign.hpp):
// same --seed and --profile always inject the same faults and report the same
// findings; failures are shrunk to standalone .repro files. `chaos
// --repro=f.repro` re-runs one repro through the differential oracles, and
// `replay --repro=f.repro` steps through its embedded scenario + trace with
// the normal per-epoch output. Profiles: none, light, heavy, reorder,
// malformed, mixed, or `all` to cycle.
//
// Algorithms: ssa, mla-c, bla-c, mnu-c, mla-d, bla-d, mnu-d, lock-d,
// local-search, mnu-1session, bla-1session.
//
// Every subcommand also accepts --simd=auto|scalar|avx2 (default auto) to
// pin the bitset/popcount kernel dispatch; scalar and avx2 outputs are
// bit-identical (docs/cli.md).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/chaos/campaign.hpp"
#include "wmcast/chaos/oracles.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/assoc/revenue.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/serve/workload.hpp"
#include "wmcast/exact/exact_bla.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/exact/exact_mnu.hpp"
#include "wmcast/exact/lp_writer.hpp"
#include "wmcast/setcover/materialize.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/stats.hpp"
#include "wmcast/util/table.hpp"
#include "wmcast/wlan/coverage.hpp"
#include "wmcast/wlan/scenario_generator.hpp"
#include "wmcast/wlan/serialization.hpp"
#include "wmcast/wlan/svg_map.hpp"

using namespace wmcast;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wmcast_cli <generate|info|solve|eval|exact|export-lp|render|"
               "replay|serve|chaos> "
               "--key=value ...\n(see the header of tools/wmcast_cli.cpp for details)\n");
  return 2;
}

void print_solution(const wlan::Scenario& sc, const assoc::Solution& sol) {
  util::Table t({"metric", "value"});
  t.add_row({"algorithm", sol.algorithm});
  t.add_row({"served users", std::to_string(sol.loads.satisfied_users) + " / " +
                                 std::to_string(sc.n_users())});
  t.add_row({"total multicast load", util::fmt(sol.loads.total_load, 4)});
  t.add_row({"max AP load", util::fmt(sol.loads.max_load, 4)});
  t.add_row({"within budget", sol.loads.within_budget() ? "yes" : "NO"});
  t.add_row({"solve time (s)", util::fmt(sol.solve_seconds, 4)});
  if (sol.rounds > 0) {
    t.add_row({"rounds", std::to_string(sol.rounds)});
    t.add_row({"converged", sol.converged ? "yes" : "NO"});
  }
  const auto rev = assoc::compute_revenue(sc, sol.loads);
  t.add_row({"revenue: pay-per-view", util::fmt(rev.pay_per_view, 2)});
  t.add_row({"revenue: convex unicast", util::fmt(rev.convex_unicast, 3)});
  t.add_row({"revenue: per-byte", util::fmt(rev.per_byte, 3)});
  if (sol.k >= 2) {
    t.add_row({"k (max serving APs/user)", std::to_string(sol.k)});
    t.add_row({"multi-served users", std::to_string(sol.multi_loads.multi_served_users)});
    t.add_row({"mean effective rate (Mbps)",
               util::fmt(sol.multi_loads.mean_effective_rate, 2)});
    t.add_row({"total load (all streams)", util::fmt(sol.multi_loads.total_load, 4)});
  }
  t.print();
}

int cmd_generate(const util::Args& args) {
  wlan::GeneratorParams p;
  p.n_aps = args.get_int("aps", p.n_aps);
  p.n_users = args.get_int("users", p.n_users);
  p.n_sessions = args.get_int("sessions", p.n_sessions);
  p.session_rate_mbps = args.get_double("rate", p.session_rate_mbps);
  p.load_budget = args.get_double("budget", p.load_budget);
  p.area_side_m = args.get_double("area", p.area_side_m);
  p.zipf_exponent = args.get_double("zipf", 0.0);
  p.hotspot_fraction = args.get_double("hotspot", 0.0);
  util::Rng rng(args.get_u64("seed", 1));
  const auto sc = wlan::generate_scenario(p, rng);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=path required\n");
    return 2;
  }
  if (!wlan::save_scenario(sc, out)) return 1;
  std::printf("wrote %s: %d APs, %d users (%d coverable), %d sessions\n", out.c_str(),
              sc.n_aps(), sc.n_users(), sc.n_coverable_users(), sc.n_sessions());
  return 0;
}

int cmd_info(const util::Args& args) {
  const auto sc = wlan::load_scenario(args.get("scenario", ""));
  util::Table t({"property", "value"});
  t.add_row({"APs", std::to_string(sc.n_aps())});
  t.add_row({"users", std::to_string(sc.n_users())});
  t.add_row({"coverable users", std::to_string(sc.n_coverable_users())});
  t.add_row({"sessions", std::to_string(sc.n_sessions())});
  t.add_row({"load budget", util::fmt(sc.load_budget(), 3)});
  t.add_row({"geometric", sc.has_geometry() ? "yes" : "no"});
  t.add_row({"basic rate (Mbps)", util::fmt(sc.basic_rate(), 1)});
  double demand = 0.0;
  for (int s = 0; s < sc.n_sessions(); ++s) demand += sc.session_rate(s);
  t.add_row({"total stream demand (Mbps)", util::fmt(demand, 2)});
  const auto sys = setcover::build_set_system(sc);
  t.add_row({"candidate sets", std::to_string(sys.n_sets())});
  const auto cov = wlan::analyze_coverage(sc);
  t.add_row({"mean APs per user", util::fmt(cov.mean_aps_per_user, 2)});
  t.add_row({"max APs per user (layering f)", std::to_string(cov.max_aps_per_user)});
  t.add_row({"mean users per AP", util::fmt(cov.mean_users_per_ap, 2)});
  t.add_row({"idle APs", std::to_string(cov.idle_aps)});
  t.print();
  return 0;
}

int cmd_solve(const util::Args& args) {
  auto sc = wlan::load_scenario(args.get("scenario", ""));
  if (args.has("budget")) sc = sc.with_budget(args.get_double("budget", 0.9));
  const std::string algorithm = args.get("algorithm", "mla-c");
  util::Rng rng(args.get_u64("seed", 1));

  if (!assoc::is_algorithm(algorithm)) {
    std::fprintf(stderr, "solve: unknown --algorithm=%s (known:", algorithm.c_str());
    for (const auto& n : assoc::algorithm_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  assoc::SolveOptions options;
  options.multi_rate = !args.get_bool("basic-rate", false);
  options.k = args.get_int("k", 1);
  const assoc::Solution sol = assoc::solve_by_name(algorithm, sc, rng, options);

  print_solution(sc, sol);
  const std::string out = args.get("assoc-out", "");
  if (!out.empty()) {
    if (!wlan::save_association(sol.assoc, out)) return 1;
    std::printf("association written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_eval(const util::Args& args) {
  const auto sc = wlan::load_scenario(args.get("scenario", ""));
  const auto assoc = wlan::load_association(args.get("assoc", ""));
  auto sol = assoc::make_solution("eval", sc, assoc,
                                  !args.get_bool("basic-rate", false));
  print_solution(sc, sol);
  return 0;
}

int cmd_exact(const util::Args& args) {
  auto sc = wlan::load_scenario(args.get("scenario", ""));
  if (args.has("budget")) sc = sc.with_budget(args.get_double("budget", 0.9));
  const std::string problem = args.get("problem", "mla");
  exact::BbLimits limits;
  limits.time_limit_s = args.get_double("time-limit", 10.0);
  const auto sys = setcover::build_set_system(sc);

  if (problem == "mla") {
    const auto res = exact::exact_min_cost_cover(sys, limits);
    std::printf("MLA optimum: total load %.6f (%s, %lld nodes)\n", res.cost,
                res.status == exact::BbStatus::kOptimal ? "proved" : "time-limited",
                static_cast<long long>(res.nodes));
  } else if (problem == "bla") {
    const auto res = exact::exact_min_max_cover(sys, limits);
    std::printf("BLA optimum: max AP load %.6f (%s, %lld nodes)\n", res.max_group_cost,
                res.status == exact::BbStatus::kOptimal ? "proved" : "time-limited",
                static_cast<long long>(res.nodes));
  } else if (problem == "mnu") {
    const auto res = exact::exact_max_coverage_uniform(sys, sc.load_budget(), limits);
    std::printf("MNU optimum: %d of %d users (%s, %lld nodes)\n", res.covered,
                sc.n_coverable_users(),
                res.status == exact::BbStatus::kOptimal ? "proved" : "time-limited",
                static_cast<long long>(res.nodes));
  } else {
    std::fprintf(stderr, "exact: unknown --problem=%s\n", problem.c_str());
    return 2;
  }
  return 0;
}

int cmd_export_lp(const util::Args& args) {
  auto sc = wlan::load_scenario(args.get("scenario", ""));
  if (args.has("budget")) sc = sc.with_budget(args.get_double("budget", 0.9));
  const std::string problem = args.get("problem", "mla");
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "export-lp: --out=path required\n");
    return 2;
  }
  const auto sys = setcover::build_set_system(sc);
  std::string lp;
  if (problem == "mla") {
    lp = exact::write_mla_lp(sys);
  } else if (problem == "bla") {
    lp = exact::write_bla_lp(sys);
  } else if (problem == "mnu") {
    const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()),
                                      sc.load_budget());
    lp = exact::write_mnu_lp(sys, budgets);
  } else {
    std::fprintf(stderr, "export-lp: unknown --problem=%s\n", problem.c_str());
    return 2;
  }
  std::ofstream f(out);
  if (!f || !(f << lp)) return 1;
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), lp.size());
  return 0;
}

int cmd_render(const util::Args& args) {
  const auto sc = wlan::load_scenario(args.get("scenario", ""));
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "render: --out=path required\n");
    return 2;
  }
  wlan::SvgOptions opt;
  opt.draw_ranges = args.get_bool("ranges", false);
  if (args.has("assoc")) {
    const auto assoc = wlan::load_association(args.get("assoc", ""));
    if (!wlan::save_svg(sc, &assoc, out, opt)) return 1;
  } else {
    if (!wlan::save_svg(sc, nullptr, out, opt)) return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// `replay`: runs the online controller epoch by epoch over a trace (from
// file, a repro, or generated) and prints per-epoch rows plus a summary.
int cmd_replay(const util::Args& args) {
  // A chaos repro file embeds its own scenario + trace (+ solver + seed);
  // explicit flags still override the embedded defaults.
  std::optional<chaos::Repro> repro;
  if (args.has("repro")) repro = chaos::load_repro(args.get("repro", ""));

  // Without --scenario, generate one (same flags as `generate`) so
  // `wmcast_cli replay` works out of the box.
  wlan::Scenario sc = [&] {
    if (repro) return repro->scenario;
    if (args.has("scenario")) return wlan::load_scenario(args.get("scenario", ""));
    wlan::GeneratorParams p;
    p.n_aps = args.get_int("aps", 100);
    p.n_users = args.get_int("users", 300);
    p.n_sessions = args.get_int("sessions", p.n_sessions);
    p.session_rate_mbps = args.get_double("rate", p.session_rate_mbps);
    p.load_budget = args.get_double("budget", p.load_budget);
    util::Rng rng(args.get_u64("scenario-seed", 1));
    return wlan::generate_scenario(p, rng);
  }();
  if (!sc.has_geometry()) {
    std::fprintf(stderr, "replay: scenario must be geometric\n");
    return 2;
  }

  ctrl::ControllerConfig cfg;
  if (repro) {
    cfg.full_solver = repro->solver;
    cfg.seed = repro->seed;
  }
  cfg.full_solver = args.get("solver", cfg.full_solver);
  cfg.multi_rate = !args.get_bool("basic-rate", false);
  cfg.degradation_threshold = args.get_double("threshold", cfg.degradation_threshold);
  cfg.full_refresh_epochs = args.get_int("refresh", cfg.full_refresh_epochs);
  cfg.max_reassoc_per_epoch = args.get_int("max-reassoc", cfg.max_reassoc_per_epoch);
  cfg.polish_min_gain = args.get_double("min-gain", cfg.polish_min_gain);
  cfg.admission_control = !args.get_bool("no-admission", false);
  cfg.seed = args.get_u64("seed", cfg.seed);
  cfg.threads = util::resolve_threads(args);
  cfg.k = args.get_int("k", cfg.k);
  if (!assoc::is_algorithm(cfg.full_solver)) {
    std::fprintf(stderr, "replay: unknown --solver=%s\n", cfg.full_solver.c_str());
    return 2;
  }

  ctrl::AssociationController controller(sc, cfg);

  ctrl::EventTrace trace;
  if (repro) {
    trace = repro->trace;
  } else if (args.has("trace")) {
    trace = ctrl::load_trace(args.get("trace", ""));
  } else {
    ctrl::TraceParams tp;
    tp.epochs = args.get_int("epochs", tp.epochs);
    tp.move_fraction = args.get_double("move", tp.move_fraction);
    tp.walk_sigma_m = args.get_double("walk", tp.walk_sigma_m);
    tp.zap_fraction = args.get_double("zap", tp.zap_fraction);
    tp.leave_fraction = args.get_double("leave", tp.leave_fraction);
    tp.join_fraction = args.get_double("join", tp.join_fraction);
    tp.rate_change_prob = args.get_double("rate-prob", tp.rate_change_prob);
    util::Rng trng(args.get_u64("trace-seed", 7));
    trace = ctrl::generate_churn_trace(controller.state(), tp, trng);
  }
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty() && !ctrl::save_trace(trace, trace_out)) return 1;

  const bool quiet = args.get_bool("quiet", false);
  util::Table t({"epoch", "events", "dirty", "reassoc", "forced", "full", "load",
                 "vs base", "served"});
  long long reassoc = 0;
  long long forced = 0;
  int full_solves = 0;
  int rollbacks = 0;
  for (int e = 0; e < trace.n_epochs(); ++e) {
    controller.submit(trace.epochs[static_cast<size_t>(e)]);
    const auto rep = controller.drain();
    reassoc += rep.reassociations;
    forced += rep.forced_reassociations;
    full_solves += rep.used_full_solve ? 1 : 0;
    rollbacks += rep.rolled_back ? 1 : 0;
    if (!quiet) {
      const double vs = rep.baseline_load > 0.0
                            ? (rep.total_load / rep.baseline_load - 1.0) * 100.0
                            : 0.0;
      t.add_row({std::to_string(rep.epoch), std::to_string(rep.events),
                 std::to_string(rep.dirty_users), std::to_string(rep.reassociations),
                 std::to_string(rep.forced_reassociations),
                 std::string(rep.used_full_solve ? "yes" : "") +
                     (rep.rolled_back ? " rb" : ""),
                 util::fmt(rep.total_load, 3), util::fmt(vs, 1) + "%",
                 std::to_string(rep.users_served) + "/" +
                     std::to_string(rep.users_subscribed)});
    }
  }
  if (!quiet) t.print();

  const int n_epochs = std::max(1, trace.n_epochs());
  std::printf("replayed %d epochs (%zu events): %.1f reassoc/epoch "
              "(%.1f forced), %d full re-solves, %d rollbacks, final load %.3f "
              "(baseline %.3f)\n",
              trace.n_epochs(), trace.n_events(),
              static_cast<double>(reassoc) / n_epochs,
              static_cast<double>(forced) / n_epochs, full_solves, rollbacks,
              controller.loads().total_load, controller.baseline_load());
  if (cfg.k >= 2) {
    std::printf("k=%d overlay: %d multi-served users, mean effective rate %.2f Mbps\n",
                cfg.k, controller.multi_loads().multi_served_users,
                controller.multi_loads().mean_effective_rate);
  }

  const std::string tele_out = args.get("telemetry", "");
  if (!tele_out.empty()) {
    std::ofstream f(tele_out);
    if (!f || !(f << controller.telemetry().to_json().dump(2) << "\n")) {
      std::fprintf(stderr, "replay: cannot write %s\n", tele_out.c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", tele_out.c_str());
  }
  return 0;
}

// `serve`: the production streaming mode. Feeds the controller through the
// serve loop (bounded queue, adaptive batching, bounded-staleness coalescing,
// reject/shed backpressure) from either a synthetic workload (--profile) or a
// wmcast-trace on stdin, read incrementally so solving overlaps input and
// multi-GB traces never need buffering. On EOF the backlog drains and the
// final wmcast-serve-telemetry/v1 block is flushed.
int cmd_serve(const util::Args& args) {
  args.reject_unknown(
      {"scenario", "aps", "users", "sessions", "area", "budget", "scenario-seed",
       "solver", "basic-rate", "threshold", "refresh", "max-reassoc", "min-gain",
       "no-admission", "seed", "threads", "k", "profile", "duration", "rate",
       "workload-seed", "batch-max", "staleness-ms", "queue-cap", "policy",
       "no-coalesce", "modeled", "pipeline", "telemetry", "trace-out",
       "trace-epoch-s", "quiet", "json", "simd"});

  wlan::Scenario sc = [&] {
    if (args.has("scenario")) return wlan::load_scenario(args.get("scenario", ""));
    wlan::GeneratorParams p;
    p.n_aps = args.get_int("aps", 100);
    p.n_users = args.get_int("users", 300);
    p.n_sessions = args.get_int("sessions", p.n_sessions);
    p.area_side_m = args.get_double("area", p.area_side_m);
    p.load_budget = args.get_double("budget", p.load_budget);
    util::Rng rng(args.get_u64("scenario-seed", 1));
    return wlan::generate_scenario(p, rng);
  }();
  if (!sc.has_geometry()) {
    std::fprintf(stderr, "serve: scenario must be geometric\n");
    return 2;
  }

  ctrl::ControllerConfig cfg;
  cfg.full_solver = args.get("solver", cfg.full_solver);
  cfg.multi_rate = !args.get_bool("basic-rate", false);
  cfg.degradation_threshold = args.get_double("threshold", cfg.degradation_threshold);
  cfg.full_refresh_epochs = args.get_int("refresh", cfg.full_refresh_epochs);
  cfg.max_reassoc_per_epoch = args.get_int("max-reassoc", cfg.max_reassoc_per_epoch);
  cfg.polish_min_gain = args.get_double("min-gain", cfg.polish_min_gain);
  cfg.admission_control = !args.get_bool("no-admission", false);
  cfg.seed = args.get_u64("seed", cfg.seed);
  cfg.threads = util::resolve_threads(args);
  cfg.k = args.get_int("k", cfg.k);
  cfg.max_batch = 0;  // the serve loop owns batching; one batch = one epoch
  if (!assoc::is_algorithm(cfg.full_solver)) {
    std::fprintf(stderr, "serve: unknown --solver=%s\n", cfg.full_solver.c_str());
    return 2;
  }
  ctrl::AssociationController controller(sc, cfg);

  serve::ServeConfig scfg;
  scfg.batch_max = args.get_int("batch-max", scfg.batch_max);
  scfg.staleness_s = args.get_double("staleness-ms", scfg.staleness_s * 1000.0) / 1000.0;
  const int queue_cap = args.get_int("queue-cap", static_cast<int>(scfg.queue_cap));
  scfg.queue_cap = queue_cap <= 0 ? 0 : static_cast<size_t>(queue_cap);
  scfg.policy = serve::overflow_policy_from_name(args.get("policy", "reject"));
  scfg.coalesce = !args.get_bool("no-coalesce", false);
  scfg.modeled_service = args.get_bool("modeled", false);
  scfg.pipeline = args.get_bool("pipeline", false);
  serve::ServeLoop loop(&controller, scfg);

  const double rate = args.get_double("rate", 1000.0);
  const std::string trace_out = args.get("trace-out", "");
  double end_t = 0.0;
  uint64_t offered = 0;

  if (args.has("profile")) {
    // Synthetic workload, deterministic in (scenario, profile, seed).
    serve::WorkloadParams wp;
    wp.duration_s = args.get_double("duration", 10.0);
    wp.events_per_s = rate;
    wp.seed = args.get_u64("workload-seed", 1);
    const auto profile = serve::WorkloadProfile::named(args.get("profile", "mixed"));
    serve::WorkloadGenerator gen(controller.state(), profile, wp);
    std::vector<serve::TimedEvent> kept;  // only populated for --trace-out
    serve::TimedEvent te;
    while (gen.next(&te)) {
      loop.offer(te.t_s, te.ev);
      ++offered;
      if (!trace_out.empty()) kept.push_back(te);
    }
    end_t = wp.duration_s;
    if (!trace_out.empty()) {
      const auto exported = serve::workload_to_trace(
          kept, wp.duration_s, args.get_double("trace-epoch-s", 1.0));
      if (!ctrl::save_trace(exported, trace_out)) return 1;
      std::printf("workload trace written to %s\n", trace_out.c_str());
    }
  } else {
    // Streaming stdin: one epoch parsed and offered at a time; events are
    // paced onto the virtual timeline at --rate events/sec.
    const double dt = rate > 0.0 ? 1.0 / rate : 0.0;
    ctrl::TraceReader reader(std::cin);
    std::vector<ctrl::Event> epoch;
    double t = 0.0;
    while (reader.next_epoch(&epoch)) {
      for (const auto& ev : epoch) {
        loop.offer(t, ev);
        ++offered;
        t += dt;
      }
    }
    end_t = t;
  }

  const serve::ServeTelemetry& tele = loop.finish(end_t);

  const bool quiet = args.get_bool("quiet", false);
  std::printf("served %llu events in %llu batches: latency p50 %s p99 %s p999 %s s, "
              "%0.0f events/s virtual, %0.0f events/s wall "
              "(rejected %llu, shed %llu, coalesced %llu)\n",
              static_cast<unsigned long long>(tele.offered.value()),
              static_cast<unsigned long long>(tele.batches.value()),
              util::fmt(tele.latency_s.quantile(0.5), 4).c_str(),
              util::fmt(tele.latency_s.quantile(0.99), 4).c_str(),
              util::fmt(tele.latency_s.quantile(0.999), 4).c_str(),
              tele.virtual_events_per_s(), tele.wall_events_per_s(),
              static_cast<unsigned long long>(tele.rejected.value()),
              static_cast<unsigned long long>(tele.shed.value()),
              static_cast<unsigned long long>(tele.coalesced.value()));
  if (!quiet) std::fputs(util::metrics_text(tele.rows(), tele).c_str(), stdout);

  // Wall-clock fields are nondeterministic; drop them from serialized
  // telemetry under --modeled so the block is a pure function of
  // (scenario, workload, config) — what the determinism tests diff.
  const bool include_variant = !scfg.modeled_service;
  if (args.get_bool("json", false)) {
    std::printf("%s\n", tele.to_json(include_variant).dump(2).c_str());
  }
  const std::string tele_out = args.get("telemetry", "");
  if (!tele_out.empty()) {
    std::ofstream f(tele_out);
    if (!f || !(f << tele.to_json(include_variant).dump(2) << "\n")) {
      std::fprintf(stderr, "serve: cannot write %s\n", tele_out.c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", tele_out.c_str());
  }
  return 0;
}

// Deterministic fault-injection campaign (or a single-repro re-check).
int cmd_chaos(const util::Args& args) {
  if (args.has("repro")) {
    args.reject_unknown({"repro", "quiet", "simd"});
    const auto repro = chaos::load_repro(args.get("repro", ""));
    const auto r = chaos::run_repro(repro);
    const std::string failures = chaos::failures_to_text(r.results);
    if (failures.empty()) {
      std::printf("repro %s: all %zu checks pass over %d epochs\n",
                  repro.check.c_str(), r.results.size(), r.epochs_run);
      return 0;
    }
    std::printf("repro %s: STILL FAILING after %d epochs%s\n%s", repro.check.c_str(),
                r.epochs_run,
                r.diverged ? (" (diverged at epoch " +
                              std::to_string(r.divergence_epoch) + ")")
                                 .c_str()
                           : "",
                failures.c_str());
    return 1;
  }

  chaos::CampaignConfig cfg;
  cfg.seed = args.get_u64("seed", cfg.seed);
  cfg.scenarios = args.get_int("scenarios", cfg.scenarios);
  cfg.profile = args.get("profile", cfg.profile);
  cfg.threads = args.get_int("threads", cfg.threads);
  cfg.solver = args.get("solver", cfg.solver);
  cfg.n_aps = args.get_int("aps", cfg.n_aps);
  cfg.n_users = args.get_int("users", cfg.n_users);
  cfg.n_sessions = args.get_int("sessions", cfg.n_sessions);
  cfg.area_side_m = args.get_double("area", cfg.area_side_m);
  cfg.trace_epochs = args.get_int("epochs", cfg.trace_epochs);
  cfg.shrink_failures = !args.get_bool("no-shrink", false);
  cfg.out_dir = args.get("out-dir", "");
  const bool quiet = args.get_bool("quiet", false);
  const bool as_json = args.get_bool("json", false);
  args.reject_unknown({"seed", "scenarios", "profile", "threads", "solver", "aps",
                       "users", "sessions", "area", "epochs", "no-shrink", "out-dir",
                       "quiet", "json", "simd"});
  if (!assoc::is_algorithm(cfg.solver)) {
    std::fprintf(stderr, "chaos: unknown --solver=%s\n", cfg.solver.c_str());
    return 2;
  }

  const auto res = chaos::run_campaign(cfg, quiet ? nullptr : &std::cerr);
  if (as_json) {
    std::cout << chaos::campaign_to_json(cfg, res).dump(2) << "\n";
  } else {
    std::printf("chaos: %d scenarios, %d checks, %d failed", res.scenarios_run,
                res.checks_run, res.checks_failed);
    if (res.parse_attempts > 0) {
      std::printf(", %d/%d corrupted parses cleanly rejected", res.parse_rejected,
                  res.parse_attempts);
    }
    std::printf("\n");
    for (const auto& f : res.findings) {
      std::printf("  scenario %d seed=%llu profile=%s: %s — %s%s%s\n",
                  f.scenario_index, static_cast<unsigned long long>(f.seed),
                  f.profile.c_str(), f.repro.check.c_str(), f.repro.detail.c_str(),
                  f.repro_path.empty() ? "" : " -> ",
                  f.repro_path.c_str());
    }
  }
  return res.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const util::Args args(argc - 1, argv + 1);
    // Global kernel-dispatch override, honored by every subcommand (the
    // scalar and SIMD paths are bit-identical; this exists for byte-diff
    // verification legs and for benchmarking the scalar floor).
    util::resolve_simd(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "solve") return cmd_solve(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "exact") return cmd_exact(args);
    if (cmd == "export-lp") return cmd_export_lp(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "chaos") return cmd_chaos(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wmcast_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
