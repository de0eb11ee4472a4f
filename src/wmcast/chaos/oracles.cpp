#include "wmcast/chaos/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/core/engine.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/core/workspace.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/setcover/reference.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/simd.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"

namespace wmcast::chaos {
namespace {

using Controller = ctrl::AssociationController;

OracleResult ok(std::string check) { return {std::move(check), true, {}}; }

/// One comparison's verdict: `detail` names the disagreement, "" = agree.
OracleResult verdict(std::string check, std::string detail) {
  const bool pass = detail.empty();
  return {std::move(check), pass, std::move(detail)};
}

template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

template <typename T>
std::string ids_to_text(const std::vector<T>& v) {
  std::ostringstream os;
  os << '[';
  const size_t shown = std::min<size_t>(v.size(), 16);
  for (size_t i = 0; i < shown; ++i) os << (i ? " " : "") << v[i];
  if (v.size() > shown) os << " ...+" << v.size() - shown;
  os << ']';
  return os.str();
}

/// First index where the two id sequences disagree, formatted for a detail.
std::string seq_diff(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return cat("diverge at index ", i, ": engine ", ids_to_text(a), " vs reference ",
             ids_to_text(b));
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

ctrl::ControllerConfig with_threads(ctrl::ControllerConfig cfg, int threads) {
  cfg.threads = threads;
  return cfg;
}

/// Appends the failures among `results` to `out`, check names prefixed by
/// `check_prefix` and details by `detail_prefix`; true when none failed.
bool keep_failures(std::vector<OracleResult>& out, std::vector<OracleResult> results,
                   const std::string& check_prefix,
                   const std::string& detail_prefix = "") {
  bool clean = true;
  for (auto& r : results) {
    if (r.pass) continue;
    r.check = check_prefix + r.check;
    r.detail = detail_prefix + r.detail;
    out.push_back(std::move(r));
    clean = false;
  }
  return clean;
}

// --- Projections two runs are compared on ("" = identical). ----------------

std::string state_diff(const Controller& a, const Controller& b) {
  return a.state() == b.state() ? "" : "committed NetworkState differs";
}

std::string commit_diff(const Controller& a, const Controller& b) {
  if (a.slot_ap() != b.slot_ap()) {
    return "committed slot_ap " + seq_diff(a.slot_ap(), b.slot_ap());
  }
  return state_diff(a, b);
}

std::string overlay_diff(const Controller& a, const Controller& b) {
  if (!(a.multi_assoc() == b.multi_assoc())) return "k=2 served-sets differ";
  if (a.multi_loads().effective_rate != b.multi_loads().effective_rate) {
    return "k=2 effective rates differ";
  }
  return {};
}

/// Serve telemetry with wall excluded is a pure function of (workload,
/// config); the shard partition must not leak into it.
std::string telemetry_diff(const serve::ServeTelemetry& a,
                           const serve::ServeTelemetry& b) {
  const std::string ja = a.to_json(/*include_variant=*/false).dump();
  const std::string jb = b.to_json(/*include_variant=*/false).dump();
  if (ja == jb) return {};
  size_t i = 0;
  while (i < ja.size() && i < jb.size() && ja[i] == jb[i]) ++i;
  const size_t from = i > 20 ? i - 20 : 0;
  return cat("serve telemetry JSON diverges at byte ", i, ": ...", ja.substr(from, 60),
             "... vs ...", jb.substr(from, 60), "...");
}

/// offered = accepted + rejected; accepted = submitted + coalesced + shed.
std::string conservation_diff(const serve::ServeTelemetry& t) {
  const uint64_t handled = t.submitted.value() + t.coalesced.value() + t.shed.value();
  if (t.offered.value() == t.accepted.value() + t.rejected.value() &&
      t.accepted.value() == handled) {
    return {};
  }
  return cat("offered ", t.offered.value(), ", accepted ", t.accepted.value(),
             ", rejected ", t.rejected.value(), ", submitted ", t.submitted.value(),
             ", coalesced ", t.coalesced.value(), ", shed ", t.shed.value());
}

// --- The two shared runners. ------------------------------------------------

using PairDiff =
    std::function<std::string(const Controller& ref, const Controller& cand)>;

/// Lock-step replay: two controllers built from one scenario, each trace
/// epoch submitted to and drained on both. `diff` runs on the initial state
/// and after every drain; the replay stops at its first objection.
/// `after_drain`, when set, sees the reference after each agreeing drain.
struct Lockstep {
  Controller ref;
  Controller cand;
  int epochs_run = 0;
  int diverged_at = -1;  // trace epoch of the first objection (0 also = initially)
  std::string detail;    // that objection, prefixed by its epoch ("" = none)

  Lockstep(const OracleInput& in, const ctrl::ControllerConfig& ref_cfg,
           const ctrl::ControllerConfig& cand_cfg, const PairDiff& diff,
           const std::function<void(int epoch, const Controller& ref)>& after_drain = {})
      : ref(in.sc, ref_cfg), cand(in.sc, cand_cfg) {
    if (std::string d = diff(ref, cand); !d.empty()) {
      diverged_at = 0;
      detail = "initial state: " + d;
      return;
    }
    for (const auto& batch : in.trace.epochs) {
      ref.submit(batch);
      cand.submit(batch);
      ref.drain();
      cand.drain();
      const int ep = epochs_run++;
      if (std::string d = diff(ref, cand); !d.empty()) {
        diverged_at = ep;
        detail = cat("epoch ", ep, ": ", d);
        return;
      }
      if (after_drain) after_drain(ep, ref);
    }
  }
};

/// One controller behind a ServeLoop under the modeled service clock, fed the
/// trace on a virtual timeline: epoch e spans [e, e+1) * 50 ms with its
/// events spread evenly. The ingress queue is unbounded, so every arm
/// accepts the identical stream (backpressure is the serve tests' business).
struct ServeArm {
  Controller c;
  serve::ServeLoop loop;
  const serve::ServeTelemetry& tele;

  ServeArm(const OracleInput& in, const ctrl::ControllerConfig& cfg, bool coalesce = true)
      : c(in.sc, cfg),
        loop(&c, {.batch_max = 64, .staleness_s = 0.02, .queue_cap = 0,
                  .coalesce = coalesce, .modeled_service = true}),
        tele(feed(loop, in.trace)) {}

  static const serve::ServeTelemetry& feed(serve::ServeLoop& loop,
                                           const ctrl::EventTrace& trace) {
    constexpr double kEpochS = 0.05;
    for (size_t e = 0; e < trace.epochs.size(); ++e) {
      const auto& evs = trace.epochs[e];
      for (size_t i = 0; i < evs.size(); ++i) {
        const double in_epoch =
            static_cast<double>(i + 1) / static_cast<double>(evs.size() + 1);
        loop.offer((static_cast<double>(e) + in_epoch) * kEpochS, evs[i]);
      }
    }
    return loop.finish(static_cast<double>(trace.n_epochs()) * kEpochS);
  }
};

}  // namespace

std::string failures_to_text(const std::vector<OracleResult>& results) {
  std::string out;
  for (const auto& r : results) {
    if (!r.pass) out += r.check + ": " + r.detail + '\n';
  }
  return out;
}

ctrl::ControllerConfig oracle_controller_config(const std::string& solver,
                                                uint64_t seed) {
  ctrl::ControllerConfig cfg;
  cfg.full_solver = solver;
  cfg.seed = seed;
  cfg.full_refresh_epochs = 1;
  return cfg;
}

std::vector<OracleResult> check_solver_equivalence(const wlan::Scenario& sc) {
  const auto sys = setcover::build_set_system(sc, /*multi_rate=*/true);
  const auto eng = setcover::to_engine(sys);
  core::SolveWorkspace ws;

  // Greedy CostSC: the engine's lazy-heap greedy must reproduce the eager
  // reference pick for pick (ties broken by the shared better_pick rule).
  const auto g = core::greedy_cover(eng, ws);
  const auto gr = setcover::greedy_set_cover_reference(sys);
  OracleResult greedy =
      g.chosen != gr.chosen ? verdict("greedy.chosen", seq_diff(g.chosen, gr.chosen))
      : g.total_cost != gr.total_cost || g.complete != gr.complete ||
              g.covered.count() != gr.covered.count()
          ? verdict("greedy.result",
                    cat("same chosen, different result: cost ", g.total_cost, " vs ",
                        gr.total_cost, ", complete ", g.complete, " vs ", gr.complete,
                        ", covered ", g.covered.count(), " vs ", gr.covered.count()))
          : ok("greedy");

  // Sharded greedy vs the joint solve: same chosen *set* (order interleaves
  // across shards), identical coverage, same total cost.
  core::SessionShards shards;
  shards.build(eng);
  util::ThreadPool pool(2);
  core::ShardWorkspaces wss;
  const auto p = core::parallel_greedy_cover(eng, pool, wss, shards);
  auto sorted_p = p.chosen;
  auto sorted_g = g.chosen;
  std::sort(sorted_p.begin(), sorted_p.end());
  std::sort(sorted_g.begin(), sorted_g.end());
  OracleResult sharded =
      sorted_p != sorted_g || !(p.covered == g.covered)
          ? verdict("greedy.sharded", seq_diff(sorted_p, sorted_g))
      : !near(p.total_cost, g.total_cost)
          ? verdict("greedy.sharded_cost",
                    cat("sharded cost ", p.total_cost, " vs joint ", g.total_cost))
          : ok("greedy.sharded");

  // MCG with per-AP budgets at the scenario's load budget.
  const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()),
                                    sc.load_budget());
  const auto m = core::mcg_cover(eng, ws, budgets);
  const auto mr = setcover::mcg_greedy_reference(sys, budgets);
  bool same_violators = m.violator.size() == mr.violator.size();
  for (size_t i = 0; same_violators && i < m.violator.size(); ++i) {
    same_violators = (m.violator[i] != 0) == static_cast<bool>(mr.violator[i]);
  }
  OracleResult mcg =
      m.h != mr.h ? verdict("mcg.h", seq_diff(m.h, mr.h))
      : !same_violators
          ? verdict("mcg.violators", "same h, different budget-violation marks")
      : m.chosen != mr.chosen || m.covered.count() != mr.covered.count()
          ? verdict("mcg.chosen", seq_diff(m.chosen, mr.chosen))
          : ok("mcg");

  // SCG: same B* search grid on both sides, so the trajectory must match
  // exactly — chosen sets, feasibility, B*, and the winning pass count.
  const auto s = core::scg_cover(eng, ws, core::ScgParams{});
  const auto sr = setcover::scg_solve_reference(sys, setcover::ScgParams{});
  OracleResult scg =
      s.chosen != sr.chosen ? verdict("scg.chosen", seq_diff(s.chosen, sr.chosen))
      : s.feasible != sr.feasible || s.bstar != sr.bstar || s.passes != sr.passes ||
              !near(s.max_group_cost, sr.max_group_cost)
          ? verdict("scg.result",
                    cat("same chosen, different result: feasible ", s.feasible, " vs ",
                        sr.feasible, ", bstar ", s.bstar, " vs ", sr.bstar,
                        ", passes ", s.passes, " vs ", sr.passes, ", max_group_cost ",
                        s.max_group_cost, " vs ", sr.max_group_cost))
          : ok("scg");
  return {std::move(greedy), std::move(sharded), std::move(mcg), std::move(scg)};
}

std::vector<OracleResult> check_simd_vs_scalar(const wlan::Scenario& sc) {
  struct Snapshot {
    core::CoverResult greedy;
    core::McgResult mcg;
    core::ScgResult scg;
  };
  const auto solve_all = [&sc] {
    Snapshot s;
    const auto sys = setcover::build_set_system(sc, /*multi_rate=*/true);
    const auto eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    s.greedy = core::greedy_cover(eng, ws);
    const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()),
                                      sc.load_budget());
    s.mcg = core::mcg_cover(eng, ws, budgets);
    s.scg = core::scg_cover(eng, ws, core::ScgParams{});
    return s;
  };
  Snapshot a;  // scalar
  {
    simd::ScopedMode force(simd::Mode::kScalar);
    a = solve_all();
  }
  const Snapshot b = solve_all();  // dispatched

  const auto same = [](bool equal, const std::vector<int>& dispatched,
                       const std::vector<int>& scalar) {
    return equal ? std::string() : seq_diff(dispatched, scalar);
  };
  return {
      verdict("simd.greedy", same(a.greedy.chosen == b.greedy.chosen &&
                                      a.greedy.covered == b.greedy.covered &&
                                      a.greedy.total_cost == b.greedy.total_cost &&
                                      a.greedy.complete == b.greedy.complete,
                                  b.greedy.chosen, a.greedy.chosen)),
      verdict("simd.mcg", same(a.mcg.h == b.mcg.h && a.mcg.chosen == b.mcg.chosen &&
                                   a.mcg.covered == b.mcg.covered,
                               b.mcg.chosen, a.mcg.chosen)),
      verdict("simd.scg",
              same(a.scg.chosen == b.scg.chosen && a.scg.bstar == b.scg.bstar &&
                       a.scg.passes == b.scg.passes && a.scg.covered == b.scg.covered,
                   b.scg.chosen, a.scg.chosen)),
  };
}

std::vector<OracleResult> check_controller_invariants(const Controller& c,
                                                      int expected_epochs) {
  std::vector<OracleResult> out;
  const auto& st = c.state();
  const auto& slot_ap = c.slot_ap();

  out.push_back(verdict("invariant.epochs",
                        c.epochs() == expected_epochs
                            ? ""
                            : cat("controller reports ", c.epochs(), " epochs after ",
                                  expected_epochs, " drains")));
  if (static_cast<int>(slot_ap.size()) != st.n_slots()) {
    out.push_back(verdict("invariant.slot_space",
                          cat("slot_ap has ", slot_ap.size(), " entries for ",
                              st.n_slots(), " slots")));
    return out;  // the remaining checks index slot_ap by slot id
  }
  out.push_back(ok("invariant.slot_space"));

  // Association sanity: a served user wants service, its AP id is real, and
  // the AP can actually reach it. No check that every service-wanting user is
  // served — MCG/admission may legitimately leave users uncovered.
  std::string assoc_error;
  for (int i = 0; i < st.n_slots() && assoc_error.empty(); ++i) {
    const int ap = slot_ap[static_cast<size_t>(i)];
    if (ap == wlan::kNoAp) continue;
    if (ap < 0 || ap >= st.n_aps()) {
      assoc_error = cat("slot ", i, " assigned to nonexistent AP ", ap);
    } else if (!st.slot(i).wants_service()) {
      assoc_error = cat("slot ", i, " served by AP ", ap, " but does not want service");
    } else if (st.link_rate(ap, i) <= 0.0) {
      assoc_error = cat("slot ", i, " served by out-of-range AP ", ap);
    }
  }
  out.push_back(verdict("invariant.association", assoc_error));

  // Projection consistency: the controller patches its compact projection in
  // place every epoch; it must stay field-for-field the cold projection of
  // the committed state.
  std::vector<int> fresh_rows;
  const wlan::Scenario fresh_sc = st.to_scenario(&fresh_rows);
  const std::string field = wlan::first_difference(c.scenario(), fresh_sc);
  out.push_back(verdict(
      "invariant.projection",
      fresh_rows != c.row_slot() ? "row_slot differs from a fresh projection's"
      : field.empty()
          ? ""
          : "scenario field '" + field + "' differs from a fresh projection's"));

  // Load-report consistency: the committed report must equal a fresh
  // recomputation from the committed association on a fresh projection (so a
  // patch that drifted consistently cannot hide behind its own scenario).
  // Assumes the controller runs the default multi-rate model (true for every
  // chaos campaign config).
  if (assoc_error.empty()) {
    const auto fresh = wlan::compute_loads(
        fresh_sc, ctrl::compact_association(slot_ap, fresh_rows), /*multi_rate=*/true);
    const auto& live = c.loads();
    out.push_back(verdict(
        "invariant.loads",
        live == fresh ? ""
                      : cat("committed report (total ", live.total_load, ", max ",
                            live.max_load, ", satisfied ", live.satisfied_users,
                            ") != recomputed (total ", fresh.total_load, ", max ",
                            fresh.max_load, ", satisfied ", fresh.satisfied_users, ")")));
  }
  return out;
}

std::vector<OracleResult> check_telemetry_conservation(const Controller& c) {
  const auto& t = c.telemetry();
  const uint64_t ingested = t.events_ingested.value();
  const uint64_t applied = t.events_applied.value();
  const uint64_t invalid = t.events_invalid.value();
  uint64_t by_type = 0;
  for (const auto& counter : t.events_by_type) by_type += counter.value();
  const uint64_t joins =
      t.events_by_type[static_cast<size_t>(ctrl::EventType::kUserJoin)].value();
  const uint64_t gated = t.joins_admitted.value() + t.joins_rejected.value();
  const uint64_t reassoc = t.reassociations.value();

  const auto expect = [](bool cond, const char* check, std::string detail) {
    return verdict(check, cond ? "" : std::move(detail));
  };
  return {
      expect(ingested == applied + invalid, "telemetry.event_conservation",
             cat("ingested ", ingested, " != applied ", applied, " + invalid ", invalid)),
      expect(by_type == ingested, "telemetry.by_type_sum",
             cat("per-type counts sum to ", by_type, ", ingested ", ingested)),
      expect(gated <= joins, "telemetry.join_gate",
             cat("admitted+rejected ", gated, " exceeds join events ", joins)),
      expect(t.events_coalesced.value() <= applied, "telemetry.coalesced",
             cat("coalesced ", t.events_coalesced.value(), " exceeds applied ", applied)),
      expect(t.drains.value() == t.epochs.value(), "telemetry.drains",
             cat("drains ", t.drains.value(), " != committed epochs ", t.epochs.value())),
      expect(t.handoffs.value() <= reassoc && t.forced_reassociations.value() <= reassoc,
             "telemetry.reassociation_split",
             cat("handoffs ", t.handoffs.value(), " / forced ",
                 t.forced_reassociations.value(), " exceed reassociations ", reassoc)),
  };
}

ReplayCheckResult check_differential_replay(const OracleInput& in) {
  const ctrl::ControllerConfig& cfg = in.cfg;
  ReplayCheckResult out;
  bool invariants_clean = true;
  const Lockstep run(
      in, with_threads(cfg, 1), with_threads(cfg, in.threads),
      [](const Controller& a, const Controller& b) {
        return a.slot_ap() == b.slot_ap() ? "" : "committed slot_ap differs";
      },
      [&](int ep, const Controller& ref) {
        auto inv = check_controller_invariants(ref, ep + 1);
        invariants_clean &= keep_failures(out.results, std::move(inv), "",
                                          cat("epoch ", ep, ": "));
      });
  out.epochs_run = run.epochs_run;
  out.diverged = run.diverged_at >= 0;
  out.divergence_epoch = run.diverged_at;
  out.results.push_back(verdict("replay.thread_determinism", run.detail));
  if (invariants_clean) out.results.push_back(ok("replay.invariants"));
  const auto tele = check_telemetry_conservation(run.ref);
  out.results.insert(out.results.end(), tele.begin(), tele.end());

  // Incremental repair vs a cold full re-solve of the final state. The
  // controller's own fallback ladder bounds drift against its (possibly
  // stale) baseline, so allow the configured threshold plus slack for
  // baseline staleness between refreshes.
  if (!out.diverged && run.ref.scenario().n_users() > 0) {
    util::Rng rng(cfg.seed);
    assoc::SolveOptions opt;
    opt.multi_rate = cfg.multi_rate;
    const auto cold = assoc::solve_by_name(cfg.full_solver, run.ref.scenario(), rng, opt);
    const double live = run.ref.loads().total_load;
    const double bound =
        cold.loads.total_load * (1.0 + cfg.degradation_threshold + 0.25) + 1e-9;
    out.results.push_back(verdict(
        "replay.bounded_degradation",
        cold.loads.total_load > 0.0 && live > bound
            ? cat("final total load ", live, " exceeds cold re-solve ",
                  cold.loads.total_load, " by more than the degradation bound ", bound)
            : ""));
  }
  return out;
}

std::vector<OracleResult> check_serve_coalescing(const OracleInput& in) {
  const ServeArm with(in, in.cfg, /*coalesce=*/true);
  const ServeArm without(in, in.cfg, /*coalesce=*/false);
  std::vector<OracleResult> out = {
      verdict("serve.coalesce_equivalence", state_diff(with.c, without.c)),
      verdict("serve.conservation_coalesced", conservation_diff(with.tele)),
      verdict("serve.conservation_plain", conservation_diff(without.tele)),
  };
  if (keep_failures(out, check_controller_invariants(with.c, with.c.epochs()),
                    "serve.")) {
    out.push_back(ok("serve.invariants"));
  }
  return out;
}

std::vector<OracleResult> check_serve_repair_parallel(const OracleInput& in) {
  const ServeArm seq(in, with_threads(in.cfg, 1));
  const ServeArm par(in, with_threads(in.cfg, in.threads));
  std::vector<OracleResult> out = {
      verdict("serve.repair_parallel_equivalence", commit_diff(seq.c, par.c)),
      // Bitwise, not near(): the sharded merge reduces loads in deterministic
      // component order, so even the FP rounding must match the sequential path.
      verdict("serve.repair_parallel_loads",
              seq.c.loads() == par.c.loads() ? "" : "committed LoadReport differs"),
      verdict("serve.repair_parallel_telemetry", telemetry_diff(seq.tele, par.tele)),
  };
  if (keep_failures(out, check_controller_invariants(par.c, par.c.epochs()),
                    "serve.repair_parallel_")) {
    out.push_back(ok("serve.repair_parallel_invariants"));
  }
  return out;
}

namespace {

/// Structural invariants of a k-connectivity overlay against its primary
/// association: returns the first violation (empty = clean).
std::string kconn_overlay_error(const wlan::Scenario& sc, const assoc::Solution& sol,
                                int k) {
  for (int u = 0; u < sc.n_users(); ++u) {
    const auto& sv = sol.multi.aps_of(u);
    const int primary = sol.assoc.ap_of(u);
    if (primary == wlan::kNoAp) {
      if (!sv.empty()) return cat("user ", u, ": base-unserved but overlay serves it");
      continue;
    }
    if (!std::binary_search(sv.begin(), sv.end(), primary)) {
      return cat("user ", u, ": served-set misses primary AP ", primary);
    }
    if (std::adjacent_find(sv.begin(), sv.end(), std::greater_equal<>()) != sv.end()) {
      return cat("user ", u, ": served-set not sorted/duplicate-free");
    }
    for (const int ap : sv) {
      if (!(sc.link_rate(ap, u) > 0.0)) {
        return cat("user ", u, ": served by AP ", ap, " out of radio range");
      }
    }
    const int cap = std::min(k, static_cast<int>(sc.aps_of_user(u).size()));
    if (static_cast<int>(sv.size()) > cap) {
      return cat("user ", u, ": served-set size ", sv.size(),
                 " exceeds min(k, heard) = ", cap);
    }
  }
  return {};
}

/// Bitwise diff of a controller's maintained overlay against a cold
/// re-derivation from its own committed state (empty = identical).
std::string kconn_cold_diff(const Controller& c, const ctrl::ControllerConfig& cfg) {
  assoc::KconnParams kp;
  kp.k = c.k();
  kp.multi_rate = cfg.multi_rate;
  kp.enforce_budget = true;
  const auto cold = assoc::augment_to_k(
      c.scenario(), ctrl::compact_association(c.slot_ap(), c.row_slot()), c.loads(), kp);
  if (!(cold == c.multi_assoc())) {
    return "maintained served-sets differ from a cold augment_to_k re-derivation";
  }
  if (!(wlan::compute_multi_loads(c.scenario(), cold, kp.multi_rate) ==
        c.multi_loads())) {
    return "maintained multi-load report differs bitwise from compute_multi_loads";
  }
  return {};
}

}  // namespace

std::vector<OracleResult> check_kconn_k1_identity(const wlan::Scenario& sc) {
  std::vector<OracleResult> out;
  static const char* kSolvers[] = {"ssa", "mla-c", "bla-c", "mnu-c", "local-search"};
  for (const char* name : kSolvers) {
    const auto solve = [&](int k) {
      util::Rng rng(4242);
      assoc::SolveOptions opt;
      opt.k = k;
      return assoc::solve_by_name(name, sc, rng, opt);
    };
    const auto s1 = solve(1);
    const auto s2 = solve(2);
    const auto error = [&]() -> std::string {
      if (s1.k != 1 || !s1.multi.user_aps.empty()) {
        return "k=1 run carries a non-empty overlay";
      }
      if (!(s1.assoc == s2.assoc)) return "k=2 primary association differs from k=1";
      if (!(s1.loads == s2.loads)) return "k=2 primary load report differs from k=1";
      if (std::string e = kconn_overlay_error(sc, s2, 2); !e.empty()) return e;
      if (s2.multi_loads.satisfied_users != s2.loads.satisfied_users) {
        return "overlay changed the served-user count";
      }
      if (!(wlan::compute_multi_loads(sc, s2.multi, true) == s2.multi_loads)) {
        return "multi load report does not match a fresh recomputation";
      }
      if (std::string(name) == "mnu-c" &&
          s2.multi_loads.budget_violations > s2.loads.budget_violations) {
        return "budgeted augmentation added budget violations";
      }
      return {};
    };
    out.push_back(verdict(std::string("kconn.k1_identity/") + name, error()));
  }
  return out;
}

std::vector<OracleResult> check_kconn_parallel(const OracleInput& in) {
  // (a) Sharded-vs-joint: the k=2 served-sets must be independent of the
  // base solve's sharding (the serial augmentation sees the same base and
  // the same engine either way).
  util::ThreadPool pool(in.threads);
  assoc::CentralizedParams joint;
  joint.k = 2;
  joint.multi_rate = in.cfg.multi_rate;
  assoc::CentralizedParams sharded = joint;
  sharded.pool = &pool;
  const bool same_sets = assoc::centralized_mla(in.sc, joint).multi ==
                         assoc::centralized_mla(in.sc, sharded).multi;

  // (b) Controller threads 1-vs-N at k=2: the committed primary association
  // AND the maintained overlay must match after every epoch.
  ctrl::ControllerConfig k2 = in.cfg;
  k2.k = 2;
  const Lockstep run(in, with_threads(k2, 1), with_threads(k2, in.threads),
                     [](const Controller& a, const Controller& b) {
                       const std::string d = commit_diff(a, b);
                       return d.empty() ? overlay_diff(a, b) : d;
                     });
  return {
      verdict("kconn.sharded_vs_joint",
              same_sets ? "" : "k=2 served-sets differ between joint and sharded MLA"),
      verdict("kconn.threads_equivalence", run.detail),
  };
}

std::vector<OracleResult> check_kconn_incremental(const OracleInput& in) {
  // (a) Per-epoch incremental-vs-cold + threads 1-vs-N at k=2 with the
  // persistent engine on. The cold side is re-derived from each controller's
  // own committed state, so any drift is the incremental engine's.
  ctrl::ControllerConfig c1 = in.cfg;
  c1.k = std::max(2, in.cfg.k);
  c1.threads = 1;
  c1.kconn_incremental = true;
  const ctrl::ControllerConfig cn = with_threads(c1, in.threads);
  const Lockstep run(in, c1, cn, [&](const Controller& a, const Controller& b) {
    if (std::string d = kconn_cold_diff(a, c1); !d.empty()) return "threads=1: " + d;
    if (std::string d = kconn_cold_diff(b, cn); !d.empty()) {
      return cat("threads=", in.threads, ": ", d);
    }
    return overlay_diff(a, b);
  });

  // Every invariant instrument — the dirty-region accounting among them —
  // must be a pure function of the applied deltas, never of the pool
  // schedule.
  std::string counters_diff;
  for (const auto& row : ctrl::Telemetry::rows()) {
    if (!row.invariant) continue;
    const std::string a = row.value(run.ref.telemetry()).dump();
    const std::string b = row.value(run.cand.telemetry()).dump();
    if (a != b) {
      counters_diff = cat(row.path, " ", a, " vs ", b);
      break;
    }
  }

  // (b) Full serve stacks at k=2: threads=1 vs threads=N must byte-agree on
  // state, overlay and telemetry.
  const ServeArm seq(in, c1);
  const ServeArm par(in, cn);
  std::string serve_diff = commit_diff(seq.c, par.c);
  if (serve_diff.empty()) serve_diff = overlay_diff(seq.c, par.c);
  return {
      verdict("kconn.incremental_vs_cold", run.detail),
      verdict("kconn.incremental_counters", counters_diff),
      verdict("kconn.serve_parallel_equivalence", serve_diff),
      verdict("kconn.serve_parallel_telemetry", telemetry_diff(seq.tele, par.tele)),
  };
}

}  // namespace wmcast::chaos
