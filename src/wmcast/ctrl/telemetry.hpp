// Built-in telemetry for the association controller: monotonic counters,
// gauges, and bucketed histograms (log-scaled latency / size distributions),
// dumped as JSON under the documented `wmcast-ctrl-telemetry/v1` schema (see
// DESIGN.md §12). The schema is the row table Telemetry::rows(). The
// controller writes each epoch's facts once, in its EpochReport, and folds
// the report in with record() when the epoch commits.
#pragma once

#include <array>
#include <vector>

#include "wmcast/ctrl/events.hpp"
#include "wmcast/util/metrics.hpp"

namespace wmcast::ctrl {

inline constexpr const char* kTelemetrySchema = "wmcast-ctrl-telemetry/v1";

using util::Counter;
using util::Gauge;
/// The bucketed histogram lives in util (shared with the serve subsystem's
/// latency instruments); the alias keeps the controller-facing name.
using BucketHistogram = util::Histogram;

struct EpochReport;  // ctrl/controller.hpp

/// The controller's cumulative instrument set.
struct Telemetry {
  // Counters.
  Counter events_ingested;        // drained from the queue
  Counter events_applied;         // accepted state mutations
  Counter events_coalesced;       // folded away within a drain (net no-ops)
  Counter events_invalid;         // rejected as malformed
  std::array<Counter, kEventTypeCount> events_by_type;  // indexed by EventType
  Counter drains;
  Counter epochs;
  Counter incremental_repairs;
  Counter warm_escalations;       // degradation fixed by a global warm polish
  Counter full_solves;            // full re-solves adopted
  Counter baseline_refreshes;     // full solves run only to refresh the baseline
  Counter rollbacks;              // epochs rolled back to the minimal repair
  Counter full_solve_rejections;  // full solutions rejected by the signaling cap
  Counter joins_admitted;
  Counter joins_rejected;         // refused by the admission hook
  Counter reassociations;         // slot AP changes committed (incl. joins/drops)
  Counter handoffs;               // AP -> different-AP moves (Reassociation frames)
  Counter forced_reassociations;  // subset forced by invalidated associations

  // Coverage-engine maintenance (rebuild-vs-repair accounting, from
  // core::EngineStats).
  Counter engine_full_builds;          // whole-system projections
  Counter engine_incremental_updates;  // dirty-group update passes
  Counter engine_groups_rebuilt;       // AP candidate-set rebuilds
  Counter engine_sets_rebuilt;         // sets re-appended by those rebuilds
  Counter engine_sets_retired;         // sets tombstoned by those rebuilds
  Counter engine_compactions;          // arena reclamation passes

  // Sharded parallel solve accounting (core/parallel.hpp). Zero unless the
  // controller runs with threads > 1, so these rows are not invariant.
  Counter engine_parallel_solves;      // sharded full solves executed
  Counter engine_parallel_tasks;       // shards dispatched across all of them

  // Sharded incremental-repair accounting (ctrl/repair_shard.hpp). Unlike
  // the solve counters these are invariant: the task partition is fixed
  // before dispatch, so the same workload reports the same numbers at any
  // --threads.
  Counter engine_parallel_repair_calls;   // sharded repair invocations
  Counter engine_parallel_repair_shards;  // repair tasks dispatched across them

  // Persistent k-connectivity engine accounting (DESIGN.md §16). Invariant:
  // dirty regions are a pure function of the applied state deltas.
  Counter engine_kconn_repairs;         // dirty-region overlay repairs
  Counter engine_kconn_repaired_users;  // users re-derived across them
  Counter engine_kconn_carried_users;   // users carried untouched across them
  Counter engine_kconn_rebuilds;        // cold full re-derivations

  // Gauges (state as of the last committed epoch).
  Gauge users_present;
  Gauge users_subscribed;
  Gauge users_served;
  Gauge total_load;
  Gauge max_load;
  Gauge baseline_load;
  Gauge degradation_pct;          // (total_load / baseline_load - 1) * 100
  Gauge queue_depth;
  Gauge engine_parallel_workers;    // pool lanes used by the last sharded solve
  Gauge engine_parallel_imbalance;  // max/mean shard weight of that solve
  Gauge engine_parallel_repair_imbalance;  // max/mean dirty users per repair task
  Gauge engine_parallel_arena_peak_bytes;      // summed lane-arena high-water marks
  Gauge engine_parallel_arena_reserved_bytes;  // summed lane-arena block capacity

  // Histograms: dirty regions and re-associations per epoch span 1 .. ~4k,
  // drain wall time 1 µs .. ~16 s.
  BucketHistogram dirty_region_size = BucketHistogram::exponential(1.0, 2.0, 13);
  BucketHistogram reassoc_per_epoch = BucketHistogram::exponential(1.0, 2.0, 13);
  BucketHistogram drain_seconds = BucketHistogram::exponential(1e-6, 4.0, 13);

  /// Folds one committed epoch into the instruments. `drained` is false for
  /// the constructor's seed solve, which counts no drain or epoch and records
  /// no histogram sample.
  void record(const EpochReport& rep, bool drained = true);

  /// The schema: one row per instrument, in document order.
  static const std::vector<util::MetricRow<Telemetry>>& rows();
  /// Serializes under wmcast-ctrl-telemetry/v1. include_variant = false keeps
  /// only the invariant rows: no parallel-solve stats and no drain_seconds.
  util::Json to_json(bool include_variant = true) const;
};

}  // namespace wmcast::ctrl
