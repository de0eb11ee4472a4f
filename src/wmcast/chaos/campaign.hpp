// The chaos campaign driver (DESIGN.md §10): generate scenarios, perturb
// their churn traces with seeded fault injection, run every differential
// oracle family in the oracle table, shrink whatever fails against the family
// that emitted it, and emit standalone repro files. The whole
// campaign is a pure function of its config — same (seed, profile, sizes)
// always visits the same scenarios, injects the same faults, and reports the
// same findings, regardless of host, thread count, or wall clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "wmcast/chaos/fault.hpp"
#include "wmcast/chaos/oracles.hpp"
#include "wmcast/chaos/shrink.hpp"
#include "wmcast/util/json.hpp"

namespace wmcast::chaos {

/// One row of the oracle table: a differential oracle family and the
/// check-name prefixes it emits. The campaign runs every row in table order;
/// a shrink and a repro replay re-run only the row that emits the failing
/// check.
struct OracleFamily {
  const char* name;
  std::vector<std::string> prefixes;
  bool uses_trace;  // false: the verdicts depend on the scenario alone
  ReplayCheckResult (*run)(const OracleInput& in);
};

/// The oracle table, in the order the campaign runs it.
const std::vector<OracleFamily>& oracle_families();

/// The family whose prefix is the longest match for `check`. Throws
/// std::invalid_argument when no family emits it.
const OracleFamily& family_of(const std::string& check);

/// Replays a repro through the oracle family that emits its check, on
/// (scenario, trace, oracle_controller_config(solver, seed), threads). A
/// fixed repro passes; a regression fails again.
ReplayCheckResult run_repro(const Repro& repro);

struct CampaignConfig {
  uint64_t seed = 1;
  int scenarios = 20;             // seeded fault scenarios to run
  std::string profile = "mixed";  // FaultProfile name, or "all" to cycle them
  int threads = 4;                // the N of the 1-vs-N differentials
  std::string solver = "mla-c";   // controller full re-solve algorithm

  // Scenario scale. Small enough that one scenario replays in milliseconds;
  // the campaign gets its coverage from seed diversity, not instance size.
  int n_aps = 16;
  int n_users = 60;
  int n_sessions = 4;
  double area_side_m = 400.0;
  int trace_epochs = 10;

  bool shrink_failures = true;  // minimize failing traces before reporting
  std::string out_dir;          // write repro files here ("" = don't write)
};

/// One shrunk, reproducible failure.
struct CampaignFinding {
  int scenario_index = 0;
  uint64_t seed = 0;        // the per-scenario fault seed
  std::string profile;
  Repro repro;              // shrunk when shrink_failures, raw otherwise
  std::string repro_path;   // where it was written ("" when out_dir unset)
};

struct CampaignResult {
  int scenarios_run = 0;
  int checks_run = 0;       // individual oracle verdicts evaluated
  int checks_failed = 0;
  int parse_attempts = 0;   // corrupted-text parser probes (malformed profiles)
  int parse_rejected = 0;   // cleanly rejected with std::invalid_argument
  FaultLog faults;          // aggregate of everything the injectors did
  std::vector<CampaignFinding> findings;

  bool clean() const { return checks_failed == 0; }
};

/// Runs the campaign. `progress`, when non-null, gets one line per scenario
/// (index, profile, verdict) — the CLI passes std::cerr so long campaigns
/// show a heartbeat without polluting stdout's JSON.
CampaignResult run_campaign(const CampaignConfig& cfg,
                            std::ostream* progress = nullptr);

/// Summary (and per-finding details) as JSON for --json consumers.
util::Json campaign_to_json(const CampaignConfig& cfg, const CampaignResult& res);

}  // namespace wmcast::chaos
