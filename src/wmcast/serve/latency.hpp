// Latency-SLO instrumentation for the serve loop: per-event ingest→decision
// latency, batch shape, queue depth, and backpressure accounting, serialized
// under the documented `wmcast-serve-telemetry/v1` schema (docs/cli.md).
//
// Two clocks coexist. *Virtual* time is the workload's arrival timeline plus
// the (possibly modeled) service times — every virtual-derived field is a
// pure function of (workload, config), so it is byte-identical across thread
// counts and machines; determinism tests diff exactly this. *Wall* time is
// what the host actually spent, reported in the variant `wall` rows and
// excluded from to_json(/*include_variant=*/false).
#pragma once

#include <vector>

#include "wmcast/util/metrics.hpp"

namespace wmcast::serve {

inline constexpr const char* kServeTelemetrySchema = "wmcast-serve-telemetry/v1";

/// The serve loop's instrument set. Conservation invariants (checked by the
/// chaos oracles and tests):
///   offered  == accepted + rejected            (every arrival is accounted)
///   accepted == submitted + coalesced + shed + still queued at flush
struct ServeTelemetry {
  // Backpressure counters.
  util::Counter offered;     // arrivals presented to the ingress queue
  util::Counter accepted;    // enqueued
  util::Counter rejected;    // refused at a full queue (kRejectNewest)
  util::Counter shed;        // evicted to admit newer arrivals (kShedOldest)
  util::Counter coalesced;   // folded away by bounded-staleness coalescing
  util::Counter submitted;   // handed to the controller
  util::Counter batches;     // controller drains issued
  // Batches whose oldest event arrived while the server was still busy with
  // the previous batch: busy-arrival pressure, defined purely on virtual
  // stamps (it measures the workload, not the implementation). Serialized
  // as `pipeline.overlapped` / `pipeline.occupancy` (overlapped / batches),
  // names kept for the pinned wmcast-serve-telemetry/v1 layout.
  util::Counter pipeline_overlapped;

  // Virtual-time distributions, per event: latency_s (ingest -> decision
  // committed) splits exactly into queue_wait_s (ingest -> batch start) and
  // decision_s (batch start -> decision committed); all three record once per
  // ingested event, so their counts stay equal (a conservation law the tests
  // check). Per batch: batch_size (events per drain, pre-coalescing),
  // queue_depth (backlog at batch close) and service_s (modeled or measured).
  // Latencies span 1 µs .. ~8 s on a factor-2 ladder (SLO quantiles
  // interpolate within a bucket, so the ladder sets their resolution).
  util::Histogram latency_s = util::Histogram::exponential(1e-6, 2.0, 24);
  util::Histogram queue_wait_s = util::Histogram::exponential(1e-6, 2.0, 24);
  util::Histogram decision_s = util::Histogram::exponential(1e-6, 2.0, 24);
  util::Histogram batch_size = util::Histogram::exponential(1.0, 2.0, 16);   // 1 .. ~32k
  util::Histogram queue_depth = util::Histogram::exponential(1.0, 2.0, 16);  // same scale
  util::Histogram service_s = util::Histogram::exponential(1e-6, 4.0, 13);   // .. ~16 s

  // Stream summary, set by ServeLoop::finish().
  double virtual_duration_s = 0.0;  // arrival-span end incl. final drain
  double wall_elapsed_s = 0.0;      // host time across the whole run

  /// Events/sec over virtual and wall time: accepted / duration (0 when
  /// degenerate).
  double virtual_events_per_s() const {
    return virtual_duration_s > 0.0 ? accepted.value() / virtual_duration_s : 0.0;
  }
  double wall_events_per_s() const {
    return wall_elapsed_s > 0.0 ? accepted.value() / wall_elapsed_s : 0.0;
  }

  /// The schema: one row per instrument, in document order.
  static const std::vector<util::MetricRow<ServeTelemetry>>& rows();
  /// Serializes under wmcast-serve-telemetry/v1. With include_variant = false
  /// (no `wall` block) every field is deterministic in (workload, config) —
  /// what the thread-invariance tests compare byte-for-byte.
  util::Json to_json(bool include_variant = true) const;
};

}  // namespace wmcast::serve
