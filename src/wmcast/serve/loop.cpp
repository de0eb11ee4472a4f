#include "wmcast/serve/loop.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>

#include "wmcast/util/assert.hpp"

namespace wmcast::serve {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* overflow_policy_name(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::kRejectNewest: return "reject";
    case OverflowPolicy::kShedOldest: return "shed";
  }
  return "unknown";
}

OverflowPolicy overflow_policy_from_name(const std::string& name) {
  if (name == "reject") return OverflowPolicy::kRejectNewest;
  if (name == "shed") return OverflowPolicy::kShedOldest;
  util::require(false, "overflow_policy_from_name: unknown policy '" + name + "'");
  return OverflowPolicy::kRejectNewest;  // unreachable
}

ServeLoop::ServeLoop(ctrl::AssociationController* controller, ServeConfig cfg)
    : controller_(controller), cfg_(cfg) {
  util::require(controller_ != nullptr, "ServeLoop: null controller");
  util::require(cfg_.staleness_s >= 0.0, "ServeLoop: negative staleness");
  util::require(cfg_.model_batch_s >= 0.0 && cfg_.model_event_s >= 0.0,
                "ServeLoop: negative service model");
  queue_.set_capacity(cfg_.queue_cap);
  wall_start_ = now_seconds();
}

void ServeLoop::offer(double t_s, const ctrl::Event& e) {
  util::require(t_s >= last_arrival_, "ServeLoop: arrival stamps must be non-decreasing");
  last_arrival_ = t_s;
  advance_to(t_s);
  telemetry_.offered.inc();
  if (cfg_.policy == OverflowPolicy::kRejectNewest) {
    if (queue_.try_push(e, t_s)) {
      telemetry_.accepted.inc();
    } else {
      telemetry_.rejected.inc();
    }
  } else {
    if (queue_.push_shed_oldest(e, t_s)) telemetry_.shed.inc();
    telemetry_.accepted.inc();
  }
}

void ServeLoop::advance_to(double t_s) {
  while (process_one_due(t_s, /*force=*/false)) {
  }
}

bool ServeLoop::process_one_due(double now, bool force) {
  const size_t depth = queue_.size();
  if (depth == 0) return false;

  double t_oldest = 0.0;
  queue_.peek_stamp(0, &t_oldest);

  // The batch is due when it fills (stamp of the batch_max-th event) or when
  // the oldest event hits its staleness deadline, whichever first; force mode
  // (final flush) drains immediately.
  double trigger = force ? t_oldest : t_oldest + cfg_.staleness_s;
  if (cfg_.batch_max > 0 && depth >= static_cast<size_t>(cfg_.batch_max)) {
    double t_full = 0.0;
    queue_.peek_stamp(static_cast<size_t>(cfg_.batch_max) - 1, &t_full);
    trigger = std::min(trigger, t_full);
  }
  const double start = std::max(free_at_, trigger);
  if (!force && start > now) return false;

  // Only events that have arrived by the start instant can ride this batch.
  const size_t limit =
      cfg_.batch_max > 0 ? std::min(depth, static_cast<size_t>(cfg_.batch_max)) : depth;
  size_t take = 0;
  double stamp = 0.0;
  while (take < limit && queue_.peek_stamp(take, &stamp) && stamp <= start) ++take;
  if (take == 0) take = 1;  // force mode: the oldest event defines the start
  const std::vector<ctrl::StampedEvent> batch =
      queue_.drain_stamped(static_cast<int>(take));

  telemetry_.batch_size.record(static_cast<double>(batch.size()));
  telemetry_.queue_depth.record(static_cast<double>(depth));
  // The batch head arrived while the (virtual) server was still busy:
  // stamp-only batch pressure, independent of how service is priced.
  if (t_oldest < free_at_) telemetry_.pipeline_overlapped.inc();

  const std::vector<ctrl::Event> events =
      cfg_.coalesce ? coalesce_batch(batch) : [&] {
        std::vector<ctrl::Event> all;
        all.reserve(batch.size());
        for (const auto& se : batch) all.push_back(se.ev);
        return all;
      }();

  const double wall0 = now_seconds();
  controller_->submit(events);
  do {
    controller_->drain();
  } while (controller_->pending_events() > 0);

  const double service =
      cfg_.modeled_service
          ? cfg_.model_batch_s + cfg_.model_event_s * static_cast<double>(events.size())
          : now_seconds() - wall0;
  const double done = start + service;
  free_at_ = done;

  // Every ingested event — including ones coalesced away — has its intent
  // decided when the batch commits.
  for (const auto& se : batch) {
    telemetry_.latency_s.record(done - se.t_s);
    telemetry_.queue_wait_s.record(start - se.t_s);
    telemetry_.decision_s.record(done - start);
  }
  telemetry_.service_s.record(service);
  telemetry_.submitted.inc(events.size());
  telemetry_.batches.inc();
  return true;
}

std::vector<ctrl::Event> ServeLoop::coalesce_batch(
    const std::vector<ctrl::StampedEvent>& batch) {
  // Per user: does the batch hold only moves/subscribes for it, and where are
  // the last ones? Per session: index of the last rate_change.
  struct UserRuns {
    bool only_move_subscribe = true;
    int last_move = -1;
    int last_subscribe = -1;
  };
  std::unordered_map<int, UserRuns> users;
  std::unordered_map<int, int> last_rate;
  for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
    const ctrl::Event& ev = batch[static_cast<size_t>(i)].ev;
    switch (ev.type) {
      case ctrl::EventType::kUserMove:
        users[ev.user].last_move = i;
        break;
      case ctrl::EventType::kSubscribe:
        users[ev.user].last_subscribe = i;
        break;
      case ctrl::EventType::kRateChange:
        last_rate[ev.session] = i;
        break;
      case ctrl::EventType::kUserJoin:
      case ctrl::EventType::kUserLeave:
      case ctrl::EventType::kUnsubscribe:
        users[ev.user].only_move_subscribe = false;
        break;
    }
  }

  std::vector<ctrl::Event> out;
  out.reserve(batch.size());
  for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
    const ctrl::Event& ev = batch[static_cast<size_t>(i)].ev;
    bool keep = true;
    switch (ev.type) {
      case ctrl::EventType::kUserMove: {
        const UserRuns& r = users[ev.user];
        keep = !r.only_move_subscribe || i == r.last_move;
        break;
      }
      case ctrl::EventType::kSubscribe: {
        const UserRuns& r = users[ev.user];
        keep = !r.only_move_subscribe || i == r.last_subscribe;
        break;
      }
      case ctrl::EventType::kRateChange:
        keep = i == last_rate[ev.session];
        break;
      default:
        break;
    }
    if (keep) {
      out.push_back(ev);
    } else {
      telemetry_.coalesced.inc();
    }
  }
  return out;
}

const ServeTelemetry& ServeLoop::finish(double end_t_s) {
  while (process_one_due(std::numeric_limits<double>::infinity(), /*force=*/true)) {
  }
  telemetry_.virtual_duration_s = std::max({end_t_s, free_at_, last_arrival_});
  telemetry_.wall_elapsed_s = now_seconds() - wall_start_;
  return telemetry_;
}

}  // namespace wmcast::serve
