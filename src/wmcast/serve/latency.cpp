#include "wmcast/serve/latency.hpp"

namespace wmcast::serve {

const std::vector<util::MetricRow<ServeTelemetry>>& ServeTelemetry::rows() {
  using T = ServeTelemetry;
  using util::Json;
  static const std::vector<util::MetricRow<T>> rows = {
      {"counters.offered", &T::offered},
      {"counters.accepted", &T::accepted},
      {"counters.rejected", &T::rejected},
      {"counters.shed", &T::shed},
      {"counters.coalesced", &T::coalesced},
      {"counters.submitted", &T::submitted},
      {"counters.batches", &T::batches},
      {"histograms.latency_s", &T::latency_s},
      {"histograms.queue_wait_s", &T::queue_wait_s},
      {"histograms.decision_s", &T::decision_s},
      {"histograms.batch_size", &T::batch_size},
      {"histograms.queue_depth", &T::queue_depth},
      {"histograms.service_s", &T::service_s},
      {"virtual.duration_s", [](const T& t) -> Json { return t.virtual_duration_s; }},
      {"virtual.events_per_s", [](const T& t) -> Json { return t.virtual_events_per_s(); }},
      {"pipeline.overlapped", &T::pipeline_overlapped},
      {"pipeline.occupancy",
       [](const T& t) -> Json {
         return t.batches.value() > 0 ? static_cast<double>(t.pipeline_overlapped.value()) /
                                            static_cast<double>(t.batches.value())
                                      : 0.0;
       }},
      {"wall.elapsed_s", [](const T& t) -> Json { return t.wall_elapsed_s; }, false},
      {"wall.events_per_s", [](const T& t) -> Json { return t.wall_events_per_s(); }, false},
  };
  return rows;
}

util::Json ServeTelemetry::to_json(bool include_variant) const {
  return util::metrics_json(kServeTelemetrySchema, rows(), *this, include_variant);
}

}  // namespace wmcast::serve
