#include "wmcast/ctrl/telemetry.hpp"

#include <string>

#include "wmcast/ctrl/controller.hpp"

namespace wmcast::ctrl {

void Telemetry::record(const EpochReport& rep, bool drained) {
  events_ingested.inc(rep.events);
  events_applied.inc(rep.events_applied);
  events_coalesced.inc(rep.events_coalesced);
  events_invalid.inc(rep.events_invalid);
  for (size_t t = 0; t < kEventTypeCount; ++t) events_by_type[t].inc(rep.events_by_type[t]);
  drains.inc(drained);
  epochs.inc(drained);
  incremental_repairs.inc(rep.repair_calls > 0);
  warm_escalations.inc(rep.warm_escalated);
  full_solves.inc(rep.used_full_solve);
  baseline_refreshes.inc(rep.baseline_refreshed);
  rollbacks.inc(rep.rolled_back);
  full_solve_rejections.inc(rep.full_solve_rejected);
  joins_admitted.inc(rep.joins_admitted);
  joins_rejected.inc(rep.rejected_joins);
  reassociations.inc(rep.reassociations);
  handoffs.inc(rep.handoffs);
  forced_reassociations.inc(rep.forced_reassociations);
  engine_full_builds.inc(rep.engine_full_builds);
  engine_incremental_updates.inc(rep.engine_incremental_updates);
  engine_groups_rebuilt.inc(rep.engine_groups_rebuilt);
  engine_sets_rebuilt.inc(rep.engine_sets_rebuilt);
  engine_sets_retired.inc(rep.engine_sets_retired);
  engine_compactions.inc(rep.engine_compactions);
  if (rep.parallel_solved) {
    engine_parallel_solves.inc();
    engine_parallel_tasks.inc(rep.parallel.tasks);
    engine_parallel_workers.set(rep.parallel.workers);
    engine_parallel_imbalance.set(rep.parallel.imbalance);
    engine_parallel_arena_peak_bytes.set(static_cast<double>(rep.parallel.arena_high_water_bytes));
    engine_parallel_arena_reserved_bytes.set(static_cast<double>(rep.parallel.arena_reserved_bytes));
  }
  if (rep.repair_calls > 0) {
    engine_parallel_repair_calls.inc(rep.repair_calls);
    engine_parallel_repair_shards.inc(rep.repair_shards_run);
    engine_parallel_repair_imbalance.set(rep.repair_imbalance);
  }
  engine_kconn_repairs.inc(rep.kconn_repaired);
  engine_kconn_repaired_users.inc(rep.kconn_repaired_users);
  engine_kconn_carried_users.inc(rep.kconn_carried_users);
  engine_kconn_rebuilds.inc(rep.kconn_rebuild);
  users_present.set(rep.users_present);
  users_subscribed.set(rep.users_subscribed);
  users_served.set(rep.users_served);
  total_load.set(rep.total_load);
  max_load.set(rep.max_load);
  baseline_load.set(rep.baseline_load);
  degradation_pct.set(
      rep.baseline_load > 0.0 ? (rep.total_load / rep.baseline_load - 1.0) * 100.0 : 0.0);
  queue_depth.set(rep.queue_depth);
  if (drained) {
    dirty_region_size.record(rep.dirty_users);
    reassoc_per_epoch.record(rep.reassociations);
    drain_seconds.record(rep.drain_seconds);
  }
}

const std::vector<util::MetricRow<Telemetry>>& Telemetry::rows() {
  using T = Telemetry;
  static const std::vector<util::MetricRow<T>> rows = [] {
    std::vector<util::MetricRow<T>> r = {
        {"counters.events_ingested", &T::events_ingested},
        {"counters.events_applied", &T::events_applied},
        {"counters.events_coalesced", &T::events_coalesced},
        {"counters.events_invalid", &T::events_invalid},
    };
    for (const EventType e : kAllEventTypes) {
      r.emplace_back(std::string("counters.events_by_type.") + event_type_name(e),
                     [e](const T& t) { return t.events_by_type[size_t(e)].to_json(); });
    }
    r.insert(r.end(), {
        {"counters.drains", &T::drains},
        {"counters.epochs", &T::epochs},
        {"counters.incremental_repairs", &T::incremental_repairs},
        {"counters.warm_escalations", &T::warm_escalations},
        {"counters.full_solves", &T::full_solves},
        {"counters.baseline_refreshes", &T::baseline_refreshes},
        {"counters.rollbacks", &T::rollbacks},
        {"counters.full_solve_rejections", &T::full_solve_rejections},
        {"counters.joins_admitted", &T::joins_admitted},
        {"counters.joins_rejected", &T::joins_rejected},
        {"counters.reassociations", &T::reassociations},
        {"counters.handoffs", &T::handoffs},
        {"counters.forced_reassociations", &T::forced_reassociations},
        {"counters.engine.full_builds", &T::engine_full_builds},
        {"counters.engine.incremental_updates", &T::engine_incremental_updates},
        {"counters.engine.groups_rebuilt", &T::engine_groups_rebuilt},
        {"counters.engine.sets_rebuilt", &T::engine_sets_rebuilt},
        {"counters.engine.sets_retired", &T::engine_sets_retired},
        {"counters.engine.compactions", &T::engine_compactions},
        {"counters.engine.parallel.solves", &T::engine_parallel_solves, false},
        {"counters.engine.parallel.tasks", &T::engine_parallel_tasks, false},
        {"counters.engine.parallel.workers", &T::engine_parallel_workers, false},
        {"counters.engine.parallel.imbalance", &T::engine_parallel_imbalance, false},
        {"counters.engine.parallel.arena_peak_bytes", &T::engine_parallel_arena_peak_bytes,
         false},
        {"counters.engine.parallel.arena_reserved_bytes",
         &T::engine_parallel_arena_reserved_bytes, false},
        {"counters.engine.parallel.repair_calls", &T::engine_parallel_repair_calls},
        {"counters.engine.parallel.repair_shards", &T::engine_parallel_repair_shards},
        {"counters.engine.parallel.repair_imbalance", &T::engine_parallel_repair_imbalance},
        {"counters.engine.kconn.repairs", &T::engine_kconn_repairs},
        {"counters.engine.kconn.repaired_users", &T::engine_kconn_repaired_users},
        {"counters.engine.kconn.carried_users", &T::engine_kconn_carried_users},
        {"counters.engine.kconn.engine_rebuilds", &T::engine_kconn_rebuilds},
        {"gauges.users_present", &T::users_present},
        {"gauges.users_subscribed", &T::users_subscribed},
        {"gauges.users_served", &T::users_served},
        {"gauges.total_load", &T::total_load},
        {"gauges.max_load", &T::max_load},
        {"gauges.baseline_load", &T::baseline_load},
        {"gauges.degradation_pct", &T::degradation_pct},
        {"gauges.queue_depth", &T::queue_depth},
        {"histograms.dirty_region_size", &T::dirty_region_size},
        {"histograms.reassoc_per_epoch", &T::reassoc_per_epoch},
        {"histograms.drain_seconds", &T::drain_seconds, false},
    });
    return r;
  }();
  return rows;
}

util::Json Telemetry::to_json(bool include_variant) const {
  return util::metrics_json(kTelemetrySchema, rows(), *this, include_variant);
}

}  // namespace wmcast::ctrl
