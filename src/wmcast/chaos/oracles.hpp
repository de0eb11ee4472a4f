// Differential oracles (DESIGN.md §10): independent implementations of the
// same computation, run on identical (possibly fault-perturbed) inputs and
// required to agree. Disagreement is a bug in one of them by construction —
// no ground truth needed.
//
// Eight families, one check_* below each. The trace-driven ones share two
// runners — a lock-step replay of two controllers over the trace, and serve
// stacks fed the trace on one virtual timeline — so each states only its
// reference config, its candidate config and the projections it compares:
//  * solver: engine-backed greedy/MCG/SCG vs the eager references, and the
//    sharded greedy vs the joint solve;
//  * simd: the solver stack with the kernels forced scalar vs dispatched;
//  * replay: controller threads=1 vs threads=N (committed slot_ap after
//    every epoch), per-epoch structural invariants, telemetry conservation,
//    and incremental repair vs a cold full re-solve (bounded degradation);
//  * serve_repair_parallel: serve stacks at threads=1 vs threads=N;
//  * kconn_k1_identity, kconn_parallel, kconn_incremental: the
//    k-connectivity overlay (DESIGN.md §15-16);
//  * serve_coalescing: serve stacks with coalescing on vs off.
// The campaign's oracle table (chaos/campaign.hpp) maps each check name
// these emit back to its family.
//
// Structural invariants checked on the controller:
//  * association sanity — slot_ap sized to the slot space, every served
//    user's AP in radio range, no user served without wanting service;
//  * projection consistency — the in-place patched compact scenario and its
//    row map are field-for-field a fresh cold projection of the committed
//    state (DESIGN.md §17);
//  * load-report consistency — the committed LoadReport equals a fresh
//    recomputation from the committed association on that fresh projection;
//  * monotone epoch counters, and telemetry conservation: ingested =
//    applied + invalid, per-type counts sum to ingested, admitted +
//    rejected <= join events, handoffs <= reassociations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::chaos {

/// One oracle verdict. `pass == false` carries a human-readable detail that
/// names both sides of the disagreement.
struct OracleResult {
  std::string check;
  bool pass = true;
  std::string detail;
};

/// All failures in `results`, formatted one per line (empty when all passed).
std::string failures_to_text(const std::vector<OracleResult>& results);

/// What a trace-driven oracle family reads.
struct OracleInput {
  const wlan::Scenario& sc;
  const ctrl::EventTrace& trace;  // already fault-perturbed
  const ctrl::ControllerConfig& cfg;
  int threads;                    // the N of the 1-vs-N legs
};

/// The controller config every campaign scenario and repro replays under.
/// The baseline is refreshed every epoch: the bounded-degradation oracle
/// compares against a cold solve of the current state, which is only sound
/// against a never-stale baseline.
ctrl::ControllerConfig oracle_controller_config(const std::string& solver,
                                                uint64_t seed);

/// Engine solvers vs eager references on one scenario snapshot: greedy, MCG
/// (per-AP budgets = the scenario load budget), SCG, and sharded-vs-joint
/// greedy. Pure and deterministic.
std::vector<OracleResult> check_solver_equivalence(const wlan::Scenario& sc);

/// SIMD-vs-scalar differential (DESIGN.md §13): the full engine solver stack
/// (greedy, MCG, SCG) run once with the kernel dispatch forced scalar and
/// once under the ambient mode (auto = widest supported, so AVX2 where the
/// CPU has it). Both paths compute exact integer popcounts, so every field —
/// chosen sequences, covered bitsets, costs, pass counts — must be
/// bit-identical; any difference is a kernel bug, never a tolerance. On a CPU
/// without AVX2 the two runs share a code path and the check passes trivially.
std::vector<OracleResult> check_simd_vs_scalar(const wlan::Scenario& sc);

/// Structural invariants on a controller after an epoch (see header comment).
/// `expected_epochs` is the number of drain() calls made so far.
std::vector<OracleResult> check_controller_invariants(
    const ctrl::AssociationController& c, int expected_epochs);

/// Telemetry counter conservation on a controller's cumulative telemetry.
std::vector<OracleResult> check_telemetry_conservation(
    const ctrl::AssociationController& c);

struct ReplayCheckResult {
  std::vector<OracleResult> results;
  int epochs_run = 0;         // trace epochs drained (0 for scenario-only checks)
  bool diverged = false;
  int divergence_epoch = -1;  // trace epoch of the divergence (0 also = initially)
};

/// Replays the trace through two controllers built from the same scenario and
/// config but threads=1 vs threads=N, comparing the committed slot_ap on the
/// initial state and after every epoch and running the per-epoch invariant
/// checks on the 1-thread side. Also runs the telemetry conservation checks
/// and the incremental-vs-cold bounded-degradation check on the final state.
ReplayCheckResult check_differential_replay(const OracleInput& in);

/// Serve-loop differential: streams the trace (epochs mapped onto a virtual
/// timeline) through two ServeLoop+controller stacks under a deterministic
/// service model, identical except coalescing on vs off. Bounded-staleness
/// coalescing only folds events whose effect is superseded within a batch,
/// so both sides must converge to the same final NetworkState even on
/// fault-perturbed traces; the oracle also enforces the serve-telemetry
/// conservation laws (offered = accepted + rejected; accepted = submitted +
/// coalesced + shed after the final flush) and the controller's structural
/// invariants on the coalescing side. The ingress queue is unbounded here so
/// both sides accept the identical stream — backpressure is exercised by the
/// serve tests, not this oracle.
std::vector<OracleResult> check_serve_coalescing(const OracleInput& in);

/// Sharded-repair serve differential: streams the trace through two
/// ServeLoop+controller stacks under the deterministic service model —
/// threads=1 vs threads=N. Sharded repair merges in deterministic component
/// order and the modeled clock prices every batch from arrival stamps alone,
/// so the committed slot_ap, the LoadReport, and the serve telemetry JSON
/// (wall excluded) must be byte-identical — any drift is a partition/merge
/// bug.
/// Checks emitted: serve.repair_parallel_equivalence (state + slot_ap),
/// serve.repair_parallel_loads, serve.repair_parallel_telemetry, plus the
/// controller invariants on the parallel side (serve.repair_parallel_*).
std::vector<OracleResult> check_serve_repair_parallel(const OracleInput& in);

/// k-connectivity k == 1 identity (DESIGN.md §15): for every solver that
/// supports k (ssa, mla-c, bla-c, mnu-c, local-search), the k == 2 run's
/// primary association and load report must be bit-identical to the k == 1
/// run (the overlay never perturbs the base solve), the k == 1 run must carry
/// an empty overlay, and the k == 2 overlay must satisfy its structural
/// invariants: each served-set contains the primary, is sorted,
/// duplicate-free and capped at min(k, |heard|), and the recomputed multi
/// load report agrees with the Solution's. For mnu-c (the budgeted setting)
/// secondary adoptions must not add budget violations.
std::vector<OracleResult> check_kconn_k1_identity(const wlan::Scenario& sc);

/// k >= 2 parallel differentials: (a) sharded-vs-joint — centralized MLA at
/// k == 2 with the sharded per-session pool path vs the joint serial solve
/// must produce identical served-sets (the serial augmentation is a pure
/// function of the thread-invariant base); (b) threads 1-vs-N — the
/// controller at cfg.k = 2 replayed over the trace must commit identical
/// state, slot_ap AND k-connectivity overlays after every epoch.
std::vector<OracleResult> check_kconn_parallel(const OracleInput& in);

/// Incremental kconn engine differential (DESIGN.md §16):
/// (a) controllers at k = 2 with the persistent incremental engine, threads 1
/// and N, replayed over the trace — after EVERY epoch the maintained overlay
/// and multi-load report must be bitwise equal to a cold augment_to_k +
/// compute_multi_loads re-derivation from the committed association, the two
/// thread counts must agree with each other, and every invariant row of
/// their ctrl telemetry (Telemetry::rows) must match; (b) two full
/// ServeLoop+controller stacks at k = 2 — threads=1 vs threads=N — must
/// commit byte-identical state, overlay and serve-telemetry JSON (wall
/// excluded).
std::vector<OracleResult> check_kconn_incremental(const OracleInput& in);

}  // namespace wmcast::chaos
