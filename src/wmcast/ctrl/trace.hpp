// Event traces: the controller's replay input. One trace = an ordered list
// of epochs, each a batch of events drained together. Generation follows the
// paper's §3.1 quasi-static churn model (mobility + channel zapping)
// extended with arrivals/departures, local random-walk mobility, and
// stream-rate changes; both bench/dynamics_churn and
// bench/ctrl_replay drive their experiments from this single generator.
//
// Text format (line oriented, like wlan/serialization):
//   wmcast-trace v1
//   epochs <n>
//   epoch <index> <n_events>
//   join <user> <x> <y> <session>
//   leave <user>
//   move <user> <x> <y>
//   rate_change <session> <mbps>
//   subscribe <user> <session>
//   unsubscribe <user>
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "wmcast/ctrl/events.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/util/rng.hpp"

namespace wmcast::ctrl {

struct TraceParams {
  int epochs = 20;
  /// Fraction of present users that relocate per epoch.
  double move_fraction = 0.1;
  /// 0 = teleport to a fresh uniform point (the paper's churn model);
  /// > 0 = Gaussian random-walk step with this sigma in meters (pedestrian
  /// mobility — users mostly stay inside their current AP neighborhood).
  double walk_sigma_m = 0.0;
  /// Fraction of present users that zap to a different session per epoch.
  double zap_fraction = 0.05;
  /// Expected departures per epoch, as a fraction of present users.
  double leave_fraction = 0.0;
  /// Expected arrivals per epoch, as a fraction of the initial user count.
  double join_fraction = 0.0;
  /// Probability (per epoch) that one random session changes its stream rate.
  double rate_change_prob = 0.0;
  /// New rate drawn log-uniformly in [rate/spread, rate*spread].
  double rate_change_spread = 2.0;
  /// Area side for (re)placement; 0 = infer from the initial state.
  double area_side_m = 0.0;
};

struct EventTrace {
  std::vector<std::vector<Event>> epochs;

  int n_epochs() const { return static_cast<int>(epochs.size()); }
  size_t n_events() const;
};

/// Generates a churn trace against `initial` (the state is copied and evolved
/// internally so join/leave slot ids are consistent). Deterministic in `rng`.
EventTrace generate_churn_trace(const NetworkState& initial, const TraceParams& params,
                                util::Rng& rng);

/// Serialization; from_text throws std::invalid_argument on malformed input.
std::string trace_to_text(const EventTrace& trace);
EventTrace trace_from_text(const std::string& text);
bool save_trace(const EventTrace& trace, const std::string& path);
EventTrace load_trace(const std::string& path);

/// Incremental trace parser over any istream: reads one epoch at a time so
/// `wmcast_cli serve` can solve while stdin is still arriving instead of
/// buffering a whole (possibly multi-GB) trace first. The header is parsed by
/// the constructor; each next_epoch() consumes one epoch record. Throws
/// std::invalid_argument on malformed input, exactly like trace_from_text
/// (which is implemented on top of this reader).
class TraceReader {
 public:
  /// Parses the "wmcast-trace v1" header + epoch count. The stream must
  /// outlive the reader.
  explicit TraceReader(std::istream& in);

  /// Declared epoch count from the header.
  int n_epochs() const { return n_epochs_; }
  /// Epochs consumed so far.
  int epochs_read() const { return next_; }

  /// Reads the next epoch's events into `out` (replacing its contents).
  /// Returns false when all declared epochs have been consumed. An epoch may
  /// legitimately be empty, so the return value — not out.empty() — signals
  /// end of trace.
  bool next_epoch(std::vector<Event>* out);

 private:
  std::istream& in_;
  int n_epochs_ = 0;
  int next_ = 0;
};

}  // namespace wmcast::ctrl
