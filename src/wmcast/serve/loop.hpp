// The production serve loop: a bounded ingress queue in front of the
// association controller, with adaptive batching, bounded-staleness
// coalescing, and reject/shed backpressure — the layer that turns the PR 1
// controller into a long-lived daemon that answers while re-optimizing.
//
// The loop runs a *virtual-time* open-loop queueing discipline. Arrivals
// carry workload timestamps; a batch is drained when it fills (batch_max) or
// when its oldest event has waited staleness_s, whichever is earlier, and
// starts no earlier than the server is free. Service time is either measured
// wall time (production / benches) or a deterministic linear model
// (modeled_service, for byte-identical determinism tests): every queueing,
// batching, and coalescing decision depends only on arrival stamps + config,
// never on the host clock, so a run's decision sequence is a pure function
// of (workload, config).
#pragma once

#include <string>
#include <vector>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/events.hpp"
#include "wmcast/serve/latency.hpp"

namespace wmcast::serve {

/// What happens to an arrival when the ingress queue is full.
enum class OverflowPolicy {
  kRejectNewest,  // refuse the arrival (admission control at the edge)
  kShedOldest,    // evict the stalest queued event to admit the new one
};

/// Stable names: "reject" / "shed". from_name throws std::invalid_argument.
const char* overflow_policy_name(OverflowPolicy p);
OverflowPolicy overflow_policy_from_name(const std::string& name);

struct ServeConfig {
  /// Max events per controller drain; <= 0 = unbounded batches.
  int batch_max = 256;
  /// Max virtual seconds the oldest queued event waits before a drain.
  double staleness_s = 0.05;
  /// Ingress queue capacity; 0 = unbounded (backpressure disabled).
  size_t queue_cap = 8192;
  OverflowPolicy policy = OverflowPolicy::kRejectNewest;
  /// Fold redundant per-user move/refresh events inside each batch.
  bool coalesce = true;
  /// Deterministic service model instead of measured wall time: a batch of n
  /// submitted events takes model_batch_s + model_event_s * n virtual
  /// seconds. Tests use this to make the whole decision sequence a pure
  /// function of (workload, config).
  bool modeled_service = false;
  double model_batch_s = 200e-6;
  double model_event_s = 2e-6;
};

/// Feeds one AssociationController (borrowed; must outlive the loop) from a
/// timestamped event stream. Call offer() with non-decreasing stamps, then
/// finish() to drain the backlog and flush telemetry. The controller should
/// run with ControllerConfig::max_batch <= 0 so one serve batch maps to one
/// controller epoch (the loop drains to quiescence either way).
class ServeLoop {
 public:
  ServeLoop(ctrl::AssociationController* controller, ServeConfig cfg);
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// An arrival at virtual time t_s (>= every prior stamp). Batches due
  /// before t_s are processed first, then the event enters the ingress queue
  /// under the overflow policy.
  void offer(double t_s, const ctrl::Event& e);

  /// Processes every batch whose start time is due by virtual time t_s.
  void advance_to(double t_s);

  /// Drains the remaining backlog (ignoring the staleness deadline), stamps
  /// virtual_duration_s / wall_elapsed_s, and returns the final telemetry.
  /// `end_t_s` extends the stream end (e.g. the workload's duration) past the
  /// last arrival; < 0 uses the virtual completion time of the last batch.
  const ServeTelemetry& finish(double end_t_s = -1.0);

  const ServeTelemetry& telemetry() const { return telemetry_; }
  /// Virtual time the server becomes free (end of the last started batch).
  double server_free_at() const { return free_at_; }

 private:
  bool process_one_due(double now, bool force);
  /// In-place batch coalescing; returns the events to submit, incrementing
  /// telemetry_.coalesced for every event folded away. Safe rules only: the
  /// last move / last subscribe per user wins when that user has nothing but
  /// moves+subscribes in the batch, and the last rate_change per session
  /// always wins — transformations that provably preserve the post-batch
  /// state the controller commits.
  std::vector<ctrl::Event> coalesce_batch(const std::vector<ctrl::StampedEvent>& batch);

  ctrl::AssociationController* controller_;
  ServeConfig cfg_;
  ctrl::EventQueue queue_;
  ServeTelemetry telemetry_;
  double free_at_ = 0.0;
  double last_arrival_ = 0.0;
  double wall_start_ = 0.0;
};

}  // namespace wmcast::serve
