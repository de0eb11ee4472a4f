// Greedy test-case shrinking for chaos failures (DESIGN.md §10). A failing
// (scenario, perturbed-trace, config) triple found by the campaign is usually
// hundreds of events deep; the shrinker minimizes the trace while the failure
// predicate keeps firing, then emits a standalone "wmcast-repro v1" file that
// embeds everything needed to replay the failure — no injector, no seed
// rederivation, just the concrete shrunk trace.
//
// Shrinking is delta-debugging lite, greedy to a fixpoint:
//   1. truncate trailing epochs after the last one the predicate needs;
//   2. empty whole epochs (indices are preserved so divergence epochs stay
//      meaningful);
//   3. remove event chunks per epoch, halving the chunk size down to single
//      events.
// Every accepted step re-runs the predicate, so the result is guaranteed to
// still fail; the step count is bounded and deterministic.
#pragma once

#include <functional>
#include <string>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::chaos {

/// Returns true when the candidate trace still reproduces the failure.
using FailurePredicate = std::function<bool(const ctrl::EventTrace&)>;

struct ShrinkResult {
  ctrl::EventTrace trace;     // minimized, still failing
  size_t events_before = 0;
  size_t events_after = 0;
  int epochs_before = 0;
  int epochs_after = 0;
  int predicate_runs = 0;     // how many candidate replays the shrink cost
};

/// Greedily minimizes `trace` under `still_fails`. Precondition:
/// still_fails(trace) is true (throws std::invalid_argument otherwise — a
/// shrink request for a passing input is always a harness bug).
ShrinkResult shrink_trace(const ctrl::EventTrace& trace,
                          const FailurePredicate& still_fails);

/// A self-contained failure record: everything its oracle family needs to
/// replay it, plus provenance (which check failed, under which seed/profile).
struct Repro {
  std::string check;          // failing oracle check name
  std::string detail;         // its failure detail (informational)
  uint64_t seed = 0;          // campaign seed that produced the fault schedule
  std::string profile = "none";  // fault profile name (provenance only)
  std::string solver = "mla-c";  // controller full_solver
  int threads = 2;            // the N of the 1-vs-N differentials
  wlan::Scenario scenario = wlan::Scenario::from_geometry(
      {{0, 0}}, {}, {}, {1.0}, wlan::RateTable::ieee80211a());
  ctrl::EventTrace trace;     // concrete (already perturbed + shrunk) trace
};

/// Serializes to the line-oriented "wmcast-repro v1" format: a metadata
/// header, then the embedded wlan scenario and ctrl trace blocks, each
/// preceded by its line count so the parser needs no lookahead.
std::string repro_to_text(const Repro& repro);

/// Parses repro_to_text output. Throws std::invalid_argument on malformed
/// input (repro files are untrusted: they round-trip through disk and may
/// themselves have been corrupted by a malformed-text campaign).
Repro repro_from_text(const std::string& text);

bool save_repro(const Repro& repro, const std::string& path);
Repro load_repro(const std::string& path);

}  // namespace wmcast::chaos
