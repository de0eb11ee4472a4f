// Serve-path benchmark binary: one workload per invocation, end to end through
// serve::ServeLoop -> ctrl::AssociationController -> wlan/core/assoc.
//
//   serve_bench --workload=steady_10k --seed=1 --seconds=16 [--trace=0|1]
//               [--lanes=2] [--spans=out.json] [--counts-only]
//
// --trace=0 prints the end-to-end metrics of untraced serve runs.
// --trace=1 prints the per-layer metrics: the serve layer's own numbers from
// untraced serve runs, then a traced pass that replays the same streams binned
// into controller epochs and times each epoch phase from outside, around public
// calls. --counts-only runs just the traced pass and prints its deterministic
// counts (perfbench/selftest.py compares them across runs and lanes).
//
// The last stdout line is one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {name: {value, unit}}}
// See perfbench/README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "wmcast/ctrl/controller.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/serve/loop.hpp"
#include "wmcast/serve/workload.hpp"
#include "wmcast/util/cli.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/association.hpp"
#include "wmcast/wlan/scenario.hpp"

using namespace wmcast;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------------------------
// Workloads. Geometry is held at fixed AP degree (as bench/serve_load does), so
// per-event work stays local as the network grows.

struct Workload {
  const char* name;
  int users;
  int aps;
  const char* profile;
  double rate;   // offered events/s (the profile's base rate)
  int k;         // serving APs per user
  int replicas;  // networks + streams per run
};

constexpr int kSessions = 8;
constexpr double kDegree = 20.0;
// Stream floors: the pooled p99 needs >= 1000 offered events to have ten
// samples beyond it, and the traced pass replays kTracedEpochs binned epochs,
// enough for a p80 drain time.
constexpr int kMinEvents = 1500;
constexpr int kTracedEpochs = 50;

const Workload kWorkloads[] = {
    {"steady_10k", 10000, 200, "steady", 1000.0, 1, 8},
    {"city_100k", 100000, 2000, "steady", 100.0, 1, 4},
    {"flash_k2_10k", 10000, 200, "flash", 1000.0, 2, 8},
};

/// Seed of replica `r`: a splitmix64 step, so replicas of nearby seeds share
/// nothing.
uint64_t replica_seed(uint64_t seed, int r) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(r) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

struct Geometry {
  std::vector<wlan::Point> ap_pos;
  std::vector<wlan::Point> user_pos;
  std::vector<int> user_session;
  std::vector<double> session_rate;
};

Geometry make_geometry(const Workload& w, const wlan::RateTable& table, uint64_t seed) {
  const double r = table.range_m();
  const double side = std::sqrt(static_cast<double>(w.aps) * 3.14159265358979323846 *
                                r * r / kDegree);
  util::Rng rng(seed);
  Geometry g;
  g.ap_pos.resize(static_cast<size_t>(w.aps));
  for (auto& p : g.ap_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  g.user_pos.resize(static_cast<size_t>(w.users));
  for (auto& p : g.user_pos) p = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  g.user_session.resize(static_cast<size_t>(w.users));
  for (auto& s : g.user_session) s = rng.next_int(kSessions);
  g.session_rate.assign(kSessions, 1.0);
  return g;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank q-quantile of `sorted`. Refuses (throws) unless at least ten
/// samples lie beyond the reported rank: a p99 needs >= 1000 samples.
double checked_quantile(const std::vector<double>& sorted, double q, const char* what) {
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < 10) {
    throw std::runtime_error(std::string(what) + ": " + std::to_string(n) +
                             " samples leave fewer than 10 beyond the q=" +
                             std::to_string(q) + " rank");
  }
  return sorted[rank - 1];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Metric sink: prints the human report as it goes and the JSON line at the end.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_.push_back({name, value, unit});
    std::printf("  %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void add_count(const std::string& name, double value) { add(name, value, "count"); }

  void print_json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Output checks, run outside every timed region. Each failure is appended to
// `errors`; any failure fails the run.

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_bits(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_report(const wlan::LoadReport& a, const wlan::LoadReport& b) {
  return same_bits(a.ap_load, b.ap_load) && same_bits(a.tx_rate, b.tx_rate) &&
         same_bits(a.total_load, b.total_load) && same_bits(a.max_load, b.max_load) &&
         a.satisfied_users == b.satisfied_users &&
         a.budget_violations == b.budget_violations;
}

bool same_report(const wlan::MultiLoadReport& a, const wlan::MultiLoadReport& b) {
  return same_bits(a.ap_load, b.ap_load) && same_bits(a.tx_rate, b.tx_rate) &&
         same_bits(a.effective_rate, b.effective_rate) &&
         same_bits(a.total_load, b.total_load) && same_bits(a.max_load, b.max_load) &&
         same_bits(a.mean_effective_rate, b.mean_effective_rate) &&
         a.satisfied_users == b.satisfied_users &&
         a.multi_served_users == b.multi_served_users &&
         a.budget_violations == b.budget_violations;
}

void check_outputs(const ctrl::AssociationController& ctl,
                   std::vector<std::string>* errors) {
  const wlan::Scenario& sc = ctl.scenario();
  const std::vector<int>& row_slot = ctl.row_slot();
  const std::vector<int>& slot_ap = ctl.slot_ap();
  if (static_cast<int>(row_slot.size()) != sc.n_users()) {
    errors->push_back("row_slot size differs from the scenario's user count");
    return;
  }
  for (int r = 0; r < sc.n_users(); ++r) {
    const int slot = row_slot[static_cast<size_t>(r)];
    const int ap = static_cast<size_t>(slot) < slot_ap.size()
                       ? slot_ap[static_cast<size_t>(slot)]
                       : wlan::kNoAp;
    if (ap == wlan::kNoAp) continue;
    if (ap < 0 || ap >= sc.n_aps() || !sc.in_range(ap, r)) {
      errors->push_back("served row " + std::to_string(r) + " has AP " +
                        std::to_string(ap) + " out of range");
      return;
    }
  }

  const wlan::LoadReport fresh =
      wlan::compute_loads(sc, ctrl::compact_association(slot_ap, row_slot), true);
  if (!same_report(fresh, ctl.loads())) {
    errors->push_back("loads() differs from a fresh compute_loads");
  }
  if (fresh.budget_violations != 0) {
    errors->push_back(std::to_string(fresh.budget_violations) + " APs exceed their budget");
  }
  if (ctl.k() >= 2) {
    const wlan::MultiLoadReport multi =
        wlan::compute_multi_loads(sc, ctl.multi_assoc(), true);
    if (!same_report(multi, ctl.multi_loads())) {
      errors->push_back("multi_loads() differs from a fresh compute_multi_loads");
    }
    if (multi.budget_violations != 0) {
      errors->push_back(std::to_string(multi.budget_violations) +
                        " APs exceed their budget under the k-overlay");
    }
  }
}

/// The committed state is the generator's replica of the stream, except for
/// joins refused at admission (present, but left unsubscribed).
void check_state(const ctrl::AssociationController& ctl, const ctrl::NetworkState& demand,
                 std::vector<std::string>* errors) {
  const ctrl::NetworkState& st = ctl.state();
  if (st.n_slots() != demand.n_slots()) {
    errors->push_back("controller slot count differs from the stream's");
    return;
  }
  for (int s = 0; s < st.n_slots(); ++s) {
    const ctrl::UserSlot& a = st.slot(s);
    const ctrl::UserSlot& b = demand.slot(s);
    const bool refused = a.present && b.subscribed && !a.subscribed;
    if (a.present != b.present || a.session != b.session || a.pos.x != b.pos.x ||
        a.pos.y != b.pos.y || (a.subscribed != b.subscribed && !refused)) {
      errors->push_back("controller state differs from the stream at slot " +
                        std::to_string(s));
      return;
    }
  }
  for (int s = 0; s < st.n_sessions(); ++s) {
    if (!same_bits(st.session_rate(s), demand.session_rate(s))) {
      errors->push_back("session rate differs from the stream's");
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Untraced serve run. The stream is offered open loop on its virtual arrival
// clock; the loop measures each batch's service time on the wall clock. The
// bench steps the loop so that each call processes at most one batch and then
// attributes that batch's decision instant (server_free_at) to its events, so
// every per-event latency is exact rather than a histogram estimate.

struct ServeRun {
  serve::ServeTelemetry tele;
  std::vector<double> latency_s;     // ingest -> decision, per accepted event
  std::vector<double> queue_wait_s;  // ingest -> batch start, per accepted event
  std::vector<double> decision_s;    // batch start -> decision, per accepted event
  uint64_t handoffs = 0;             // committed AP -> AP moves during the run
  uint64_t invalid = 0;              // events the controller refused as malformed
};

ServeRun serve_stream(ctrl::AssociationController* ctl, const serve::ServeConfig& scfg,
                      const std::vector<serve::TimedEvent>& events, double duration_s) {
  ServeRun run;
  const uint64_t handoffs0 = ctl->telemetry().handoffs.value();
  const uint64_t invalid0 = ctl->telemetry().events_invalid.value();
  run.latency_s.reserve(events.size());
  run.queue_wait_s.reserve(events.size());
  run.decision_s.reserve(events.size());

  serve::ServeLoop loop(ctl, scfg);
  const serve::ServeTelemetry& tele = loop.telemetry();
  // Arrival stamps of accepted, undecided events. The loop drains FIFO and
  // the default reject-newest policy never sheds, so a batch of n events is
  // always the first n stamps here.
  std::deque<double> pending;
  uint64_t batches = 0;
  uint64_t decided = 0;
  double service_sum = 0.0;

  // Folds the batch (if any) the last loop call processed into the samples.
  const auto observe = [&]() {
    const uint64_t nb = tele.batches.value() - batches;
    if (nb == 0) return false;
    if (nb > 1) {
      throw std::runtime_error("serve loop processed " + std::to_string(nb) +
                               " batches in one step; latencies cannot be attributed");
    }
    const uint64_t n = tele.latency_s.count() - decided;
    if (n == 0 || n > pending.size()) {
      throw std::runtime_error("serve loop decided events the bench never offered");
    }
    const double done = loop.server_free_at();
    const double service = tele.service_s.sum() - service_sum;
    const double start = done - service;
    for (uint64_t i = 0; i < n; ++i) {
      const double t = pending.front();
      pending.pop_front();
      run.latency_s.push_back(done - t);
      run.queue_wait_s.push_back(start - t);
      run.decision_s.push_back(service);
    }
    batches = tele.batches.value();
    decided = tele.latency_s.count();
    service_sum = tele.service_s.sum();
    return true;
  };

  // Processes, one batch per call, every batch the loop would start by `now`.
  // The start instant mirrors ServeLoop's trigger rule (batch full, or the
  // oldest event's staleness deadline, no earlier than the server is free).
  const auto step_due = [&](double now) {
    while (!pending.empty()) {
      double trigger = pending.front() + scfg.staleness_s;
      if (scfg.batch_max > 0 && pending.size() >= static_cast<size_t>(scfg.batch_max)) {
        trigger = std::min(trigger, pending[static_cast<size_t>(scfg.batch_max) - 1]);
      }
      const double start = std::max(loop.server_free_at(), trigger);
      if (start > now) return;
      loop.advance_to(start);
      if (!observe()) return;  // the loop disagrees; let the next offer decide
    }
  };

  for (const serve::TimedEvent& te : events) {
    step_due(te.t_s);
    const uint64_t accepted0 = tele.accepted.value();
    loop.offer(te.t_s, te.ev);
    observe();
    if (tele.accepted.value() != accepted0) pending.push_back(te.t_s);
  }
  step_due(std::numeric_limits<double>::infinity());
  loop.finish(duration_s);
  observe();
  run.tele = tele;

  run.handoffs = ctl->telemetry().handoffs.value() - handoffs0;
  run.invalid = ctl->telemetry().events_invalid.value() - invalid0;
  if (!pending.empty()) throw std::runtime_error("serve loop left events undecided");
  return run;
}

void check_serve(const ServeRun& run, size_t offered, std::vector<std::string>* errors) {
  const serve::ServeTelemetry& t = run.tele;
  if (t.offered.value() != offered) errors->push_back("offered != events in the stream");
  if (t.offered.value() != t.accepted.value() + t.rejected.value()) {
    errors->push_back("offered != accepted + rejected");
  }
  if (t.accepted.value() != t.submitted.value() + t.coalesced.value() + t.shed.value()) {
    errors->push_back("accepted != submitted + coalesced + shed");
  }
  if (run.latency_s.size() != t.accepted.value() - t.shed.value()) {
    errors->push_back("decided events != accepted - shed");
  }
  // A batch's start is recovered as done - service, so allow rounding.
  constexpr double kSlack = 1e-9;
  for (size_t i = 0; i < run.latency_s.size(); ++i) {
    if (!(run.queue_wait_s[i] >= -kSlack) ||
        !(run.latency_s[i] + kSlack >= run.queue_wait_s[i])) {
      errors->push_back("negative queue wait or decision time");
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Traced pass: the same stream binned into epochs at the serve staleness
// interval, driven with submit + drain. Spans are kept in memory and written
// when the run ends.

struct Span {
  const char* name;
  int replica;
  int epoch;
  double start_s;
  double dur_s;
};

struct TracedPass {
  int epochs = 0;
  int events = 0;
  std::vector<double> drain_s;  // per epoch
  double state_copy_s = 0.0;
  double dirty_region_s = 0.0;
  double project_s = 0.0;
  double loads_s = 0.0;
  double kconn_s = 0.0;
  int64_t links = 0;  // projected links, summed over epochs
  // Deterministic counts, summed over epochs.
  std::map<std::string, double> counts;
  std::vector<Span> spans;
};

ctrl::EventTrace binned_prefix(const std::vector<serve::TimedEvent>& events,
                               double duration_s, double epoch_s, int max_epochs) {
  ctrl::EventTrace trace = serve::workload_to_trace(events, duration_s, epoch_s);
  if (trace.n_epochs() > max_epochs) trace.epochs.resize(static_cast<size_t>(max_epochs));
  return trace;
}

void count_epoch(const ctrl::EpochReport& rep, std::map<std::string, double>* c) {
  (*c)["ctrl.epochs"] += 1;
  (*c)["ctrl.dirty_users"] += rep.dirty_users;
  (*c)["ctrl.repair_shards"] += rep.repair_shards;
  if (rep.repair_shards > 0) {
    (*c)["ctrl.repair_imbalance_sum"] += rep.repair_imbalance;
    (*c)["ctrl.sharded_epochs"] += 1;
  }
  (*c)["ctrl.full_solves"] += rep.used_full_solve ? 1 : 0;
  (*c)["ctrl.rollbacks"] += rep.rolled_back ? 1 : 0;
  (*c)["ctrl.handoffs"] += rep.handoffs;
  (*c)["ctrl.events_invalid"] += rep.events_invalid;
  (*c)["ctrl.joins_rejected"] += rep.rejected_joins;
  (*c)["core.groups_rebuilt"] += rep.engine_groups_rebuilt;
  (*c)["core.sets_rebuilt"] += rep.engine_sets_rebuilt;
  (*c)["core.sets_retired"] += rep.engine_sets_retired;
  (*c)["assoc.kconn_repaired_users"] += rep.kconn_repaired_users;
  (*c)["assoc.kconn_carried_users"] += rep.kconn_carried_users;
  (*c)["assoc.kconn_rebuilds"] += rep.kconn_rebuild ? 1 : 0;
}

TracedPass traced_pass(ctrl::AssociationController* ctl, const ctrl::EventTrace& trace,
                       double t_origin, std::vector<std::string>* errors) {
  TracedPass out;
  const double kconn0 = ctl->kconn_seconds();
  ctrl::NetworkState before = ctl->state();
  std::vector<int> before_ap = ctl->slot_ap();
  for (int e = 0; e < trace.n_epochs(); ++e) {
    const std::vector<ctrl::Event>& batch = trace.epochs[static_cast<size_t>(e)];
    ctl->submit(batch);
    const double t0 = now_s();
    const ctrl::EpochReport rep = ctl->drain();
    const double t1 = now_s();
    out.spans.push_back({"ctrl.drain", 0, e, t0 - t_origin, t1 - t0});
    out.drain_s.push_back(t1 - t0);
    out.events += static_cast<int>(batch.size());
    count_epoch(rep, &out.counts);

    // Re-time, on this epoch's own inputs, the public call each O(n) phase of
    // the drain is built on. Outside the ctrl.drain span.
    double a = now_s();
    ctrl::NetworkState after = ctl->state();
    double b = now_s();
    out.spans.push_back({"ctrl.state_copy", 0, e, a - t_origin, b - a});
    out.state_copy_s += b - a;

    a = now_s();
    const std::vector<int> dirty = ctrl::compute_dirty_slots(before, after, before_ap);
    b = now_s();
    out.spans.push_back({"ctrl.dirty_region", 0, e, a - t_origin, b - a});
    out.dirty_region_s += b - a;

    std::vector<int> row_slot;
    a = now_s();
    const wlan::Scenario sc = after.to_scenario(&row_slot);
    b = now_s();
    out.spans.push_back({"wlan.project", 0, e, a - t_origin, b - a});
    out.project_s += b - a;
    out.links += sc.n_links();

    const wlan::Association assoc = ctrl::compact_association(ctl->slot_ap(), row_slot);
    a = now_s();
    const wlan::LoadReport loads = wlan::compute_loads(sc, assoc, true);
    b = now_s();
    out.spans.push_back({"wlan.loads", 0, e, a - t_origin, b - a});
    out.loads_s += b - a;

    // The re-timed calls saw the drain's own inputs: same dirty region, same
    // projection, same loads.
    if (static_cast<int>(dirty.size()) != rep.dirty_users) {
      errors->push_back("epoch " + std::to_string(e) + ": re-timed dirty region differs");
    }
    if (row_slot != ctl->row_slot() || sc.n_links() != ctl->scenario().n_links()) {
      errors->push_back("epoch " + std::to_string(e) + ": re-timed projection differs");
    }
    if (!same_report(loads, ctl->loads())) {
      errors->push_back("epoch " + std::to_string(e) + ": loads() differs from compute_loads");
    }
    if (ctl->pending_events() != 0) {
      errors->push_back("epoch " + std::to_string(e) + ": drain left events queued");
    }
    before = std::move(after);
    before_ap = ctl->slot_ap();
  }
  out.epochs = trace.n_epochs();
  out.kconn_s = ctl->kconn_seconds() - kconn0;
  return out;
}

/// The same epochs without re-timing: the reference for the tracing overhead
/// and a second, independent run of every count.
TracedPass untraced_pass(ctrl::AssociationController* ctl, const ctrl::EventTrace& trace) {
  TracedPass out;
  for (int e = 0; e < trace.n_epochs(); ++e) {
    ctl->submit(trace.epochs[static_cast<size_t>(e)]);
    const double t0 = now_s();
    const ctrl::EpochReport rep = ctl->drain();
    out.drain_s.push_back(now_s() - t0);
    count_epoch(rep, &out.counts);
  }
  out.epochs = trace.n_epochs();
  return out;
}

bool write_spans(const std::string& path, const std::string& workload, uint64_t seed,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Chrome trace-event format: one complete ("X") event per span, in µs.
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"traceEvents\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"replica\": %d, \"epoch\": %d}}",
                 i == 0 ? "" : ",\n", s.name, s.start_s * 1e6, s.dur_s * 1e6, s.replica,
                 s.epoch);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// One replica: a network drawn from (workload, replica) and a stream drawn from
// (seed, replica). The networks are the same for every --seed: a workload is a
// fixed deployment, and the seed varies the traffic it serves.

constexpr uint64_t kNetworkSeed = 71;

struct Replica {
  uint64_t net_seed = 0;     // geometry and controller seed
  uint64_t stream_seed = 0;  // workload generator seed
  Geometry geom;
  std::vector<serve::TimedEvent> events;
  ctrl::NetworkState demand;  // the generator's final state
};

struct Options {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool counts_only = false;
  int lanes = 2;
  std::string spans_path;
};

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt), w_(*opt.w), pool_(opt.lanes) {
    cfg_.threads = opt.lanes;
    cfg_.max_batch = 0;  // the serve loop owns batching
    cfg_.full_refresh_epochs = 0;
    cfg_.degradation_threshold = 0.5;
    cfg_.k = w_.k;
    stream_s_ = std::max({opt.seconds, kMinEvents / w_.rate,
                          kTracedEpochs * scfg_.staleness_s}) /
                static_cast<double>(w_.replicas);
  }

  int run();

 private:
  /// The timed set-up: Scenario::from_geometry + AssociationController
  /// construction (initial full solve, engine build, k-overlay).
  std::unique_ptr<ctrl::AssociationController> set_up(const Replica& rep) {
    const Geometry& g = rep.geom;
    ctrl::ControllerConfig cfg = cfg_;
    cfg.seed = rep.net_seed;
    const double t0 = now_s();
    const wlan::Scenario sc = wlan::Scenario::from_geometry(
        g.ap_pos, g.user_pos, g.user_session, g.session_rate, table_, 0.9, &pool_);
    const double t1 = now_s();
    auto ctl = std::make_unique<ctrl::AssociationController>(sc, cfg);
    const double t2 = now_s();
    setup_s_.push_back(t2 - t0);
    geometry_s_.push_back(t1 - t0);
    construct_s_.push_back(t2 - t1);
    return ctl;
  }

  /// Draws replica r's network and pre-generates its stream (untimed).
  Replica make_replica(int r) {
    Replica rep;
    rep.net_seed = replica_seed(kNetworkSeed, r);
    rep.stream_seed = replica_seed(opt_.seed, r);
    rep.geom = make_geometry(w_, table_, rep.net_seed);
    const Geometry& g = rep.geom;
    const ctrl::NetworkState initial = ctrl::NetworkState::from_scenario(
        wlan::Scenario::from_geometry(g.ap_pos, g.user_pos, g.user_session, g.session_rate,
                                      table_, 0.9, &pool_),
        table_);
    serve::WorkloadParams wp;
    wp.duration_s = stream_s_;
    wp.events_per_s = w_.rate;
    wp.seed = rep.stream_seed;
    // No session-rate changes: the profile's multiplicative rate walk, not the
    // serve path, would set the load level and when the degradation fallback
    // fires (README.md, "Session-rate changes").
    serve::WorkloadProfile profile = serve::WorkloadProfile::named(w_.profile);
    profile.rate_change_weight = 0.0;
    serve::WorkloadGenerator gen(initial, profile, wp);
    for (serve::TimedEvent te; gen.next(&te);) rep.events.push_back(te);
    rep.demand = gen.state();
    return rep;
  }

  /// Traced pass (and, with `reference`, the same epochs untraced) over the
  /// replicas' binned streams, in replica order, up to the epoch budget.
  void trace_replicas(std::vector<Replica>* reps, TracedPass* traced,
                      TracedPass* reference);

  const Options& opt_;
  const Workload& w_;
  const wlan::RateTable table_ = wlan::RateTable::ieee80211a();
  util::ThreadPool pool_;
  ctrl::ControllerConfig cfg_;
  const serve::ServeConfig scfg_;  // production defaults
  double stream_s_ = 0.0;
  std::vector<double> setup_s_;
  std::vector<double> geometry_s_;
  std::vector<double> construct_s_;
  std::vector<std::string> errors_;
};

void merge(TracedPass* into, const TracedPass& p) {
  into->epochs += p.epochs;
  into->events += p.events;
  into->drain_s.insert(into->drain_s.end(), p.drain_s.begin(), p.drain_s.end());
  into->state_copy_s += p.state_copy_s;
  into->dirty_region_s += p.dirty_region_s;
  into->project_s += p.project_s;
  into->loads_s += p.loads_s;
  into->kconn_s += p.kconn_s;
  into->links += p.links;
  for (const auto& [name, v] : p.counts) into->counts[name] += v;
  into->spans.insert(into->spans.end(), p.spans.begin(), p.spans.end());
}

void Bench::trace_replicas(std::vector<Replica>* reps, TracedPass* traced,
                           TracedPass* reference) {
  const double t_origin = now_s();
  int left = kTracedEpochs;
  for (int r = 0; r < w_.replicas && left > 0; ++r) {
    if (static_cast<int>(reps->size()) <= r) reps->push_back(make_replica(r));
    const Replica& rep = (*reps)[static_cast<size_t>(r)];
    const ctrl::EventTrace trace =
        binned_prefix(rep.events, stream_s_, scfg_.staleness_s, left);
    left -= trace.n_epochs();
    {
      auto ctl = set_up(rep);
      TracedPass tp = traced_pass(ctl.get(), trace, t_origin, &errors_);
      for (Span& sp : tp.spans) sp.replica = r;
      check_outputs(*ctl, &errors_);
      merge(traced, tp);
    }
    if (reference != nullptr) {
      auto ctl = set_up(rep);
      merge(reference, untraced_pass(ctl.get(), trace));
    }
  }
}

int Bench::run() {
  std::printf("serve_bench: workload %s seed %llu: %d users, %d APs, profile %s, "
              "%.0f ev/s offered, k=%d, %d lanes, %d replicas x %.2f virtual s\n",
              w_.name, static_cast<unsigned long long>(opt_.seed), w_.users, w_.aps,
              w_.profile, w_.rate, w_.k, opt_.lanes, w_.replicas, stream_s_);
  Report report;
  std::vector<Replica> reps;

  if (opt_.counts_only) {
    TracedPass tp;
    trace_replicas(&reps, &tp, nullptr);
    std::printf("counts over %d epochs:\n", tp.epochs);
    for (const auto& [name, v] : tp.counts) report.add_count(name, v);
    report.add_count("wlan.links_total", static_cast<double>(tp.links));
    for (const std::string& e : errors_) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    const auto events = static_cast<uint64_t>(std::max(tp.events, 1));
    report.print_json(errors_.empty(), events, errors_.empty() ? 0 : events);
    return errors_.empty() ? 0 : 1;
  }

  // --- untraced serve runs, one per replica (the end-to-end numbers) --------
  std::vector<double> latency_s;  // over offered events; refused = infinite
  std::vector<double> queue_wait_s;
  std::vector<double> decision_s;
  uint64_t offered = 0, accepted = 0, refused = 0, invalid = 0, handoffs = 0;
  uint64_t batches = 0, coalesced = 0, rejected = 0, shed = 0;
  double wall_s = 0.0, busy_s = 0.0, batch_events = 0.0;
  double total_load = 0.0, max_load = 0.0, served_frac = 0.0;  // summed over replicas
  for (int r = 0; r < w_.replicas; ++r) {
    reps.push_back(make_replica(r));
    const Replica& rep = reps.back();
    auto ctl = set_up(rep);
    const ServeRun run = serve_stream(ctl.get(), scfg_, rep.events, stream_s_);
    check_serve(run, rep.events.size(), &errors_);
    check_outputs(*ctl, &errors_);
    check_state(*ctl, rep.demand, &errors_);

    const serve::ServeTelemetry& t = run.tele;
    offered += t.offered.value();
    accepted += t.accepted.value();
    refused += t.rejected.value() + t.shed.value();
    rejected += t.rejected.value();
    shed += t.shed.value();
    invalid += run.invalid;
    handoffs += run.handoffs;
    batches += t.batches.value();
    coalesced += t.coalesced.value();
    batch_events += t.batch_size.sum();
    wall_s += t.wall_elapsed_s;
    busy_s += t.service_s.sum();
    latency_s.insert(latency_s.end(), run.latency_s.begin(), run.latency_s.end());
    latency_s.resize(latency_s.size() + (t.offered.value() - run.latency_s.size()),
                     std::numeric_limits<double>::infinity());
    queue_wait_s.insert(queue_wait_s.end(), run.queue_wait_s.begin(), run.queue_wait_s.end());
    decision_s.insert(decision_s.end(), run.decision_s.begin(), run.decision_s.end());

    // The paper's objectives at the end of the run, from the report the
    // controller serves (the k-overlay's at k >= 2).
    const bool multi = ctl->k() >= 2;
    total_load += multi ? ctl->multi_loads().total_load : ctl->loads().total_load;
    max_load += multi ? ctl->multi_loads().max_load : ctl->loads().max_load;
    const int served =
        multi ? ctl->multi_loads().satisfied_users : ctl->loads().satisfied_users;
    served_frac += static_cast<double>(served) / static_cast<double>(rep.demand.n_active());
  }
  const double rss_mb = peak_rss_mb();
  uint64_t attempted = offered;
  uint64_t failed = errors_.empty() ? refused + invalid : offered;

  if (!opt_.trace) {
    std::sort(latency_s.begin(), latency_s.end());
    std::printf("end-to-end (%zu latency samples, %llu batches):\n", latency_s.size(),
                static_cast<unsigned long long>(batches));
    report.add("setup_s", median(setup_s_), "s");
    report.add("p50_latency_ms", checked_quantile(latency_s, 0.50, "p50_latency") * 1e3,
               "ms");
    report.add("p99_latency_ms", checked_quantile(latency_s, 0.99, "p99_latency") * 1e3,
               "ms");
    report.add("capacity_eps", static_cast<double>(accepted) / wall_s, "events/s");
    report.add("ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(offered),
               "ratio");
    const double n_rep = static_cast<double>(w_.replicas);
    report.add("total_load", total_load / n_rep, "airtime");
    report.add("max_load", max_load / n_rep, "airtime");
    report.add("served_frac", served_frac / n_rep, "ratio");
    report.add("handoffs_per_kevent",
               1000.0 * static_cast<double>(handoffs) / static_cast<double>(accepted), "count");
    report.add("peak_rss_mb", rss_mb, "MB");
  } else {
    // --- per-layer: the serve layer from the runs above ---------------------
    std::sort(decision_s.begin(), decision_s.end());
    std::printf("serve layer (untraced runs, %llu batches):\n",
                static_cast<unsigned long long>(batches));
    // The mean, not a tail percentile: with slack the tail sits exactly at the
    // staleness deadline and would read the same on every run.
    report.add("serve.queue_wait_mean_ms", sum(queue_wait_s) / queue_wait_s.size() * 1e3,
               "ms");
    report.add("serve.decision_p99_ms", checked_quantile(decision_s, 0.99, "decision") * 1e3,
               "ms");
    report.add_count("serve.batches", static_cast<double>(batches));
    report.add("serve.batch_size_mean", batch_events / static_cast<double>(batches), "events");
    report.add("serve.coalesced_frac",
               static_cast<double>(coalesced) / static_cast<double>(accepted), "ratio");
    report.add("serve.busy_s", busy_s, "s");
    report.add("serve.self_s", wall_s - busy_s, "s");
    report.add_count("serve.rejected", static_cast<double>(rejected));
    report.add_count("serve.shed", static_cast<double>(shed));

    // --- traced pass, and the same epochs untraced --------------------------
    TracedPass tp;
    TracedPass up;
    trace_replicas(&reps, &tp, &up);
    if (up.counts != tp.counts) {
      errors_.push_back("traced and untraced passes disagree on a count");
    }
    attempted += static_cast<uint64_t>(tp.events);
    failed = errors_.empty() ? failed : attempted;

    const double drain_total = sum(tp.drain_s);
    const double drain_untraced = sum(up.drain_s);
    const double phases = tp.state_copy_s + tp.dirty_region_s + tp.project_s + tp.loads_s;
    std::vector<double> drains = tp.drain_s;
    std::sort(drains.begin(), drains.end());
    const auto count = [&](const char* name) {
      const auto it = tp.counts.find(name);
      return it == tp.counts.end() ? 0.0 : it->second;
    };
    const double n_ep = static_cast<double>(tp.epochs);
    const double sharded = count("ctrl.sharded_epochs");
    const double repaired = count("assoc.kconn_repaired_users");
    const double carried = count("assoc.kconn_carried_users");

    std::printf("ctrl/wlan/core/assoc layers (traced pass, %d epochs, %d events):\n",
                tp.epochs, tp.events);
    report.add("ctrl.construct_s", median(construct_s_), "s");
    report.add("ctrl.drain_p50_ms", checked_quantile(drains, 0.50, "drain") * 1e3, "ms");
    report.add("ctrl.drain_p80_ms", checked_quantile(drains, 0.80, "drain") * 1e3, "ms");
    report.add("ctrl.drain_total_s", drain_total, "s");
    report.add("ctrl.drain_other_s", drain_total - phases, "s");
    report.add("ctrl.drain_untraced_s", drain_untraced, "s");
    report.add("ctrl.trace_overhead_frac", drain_total / drain_untraced - 1.0, "ratio");
    report.add_count("ctrl.epochs", n_ep);
    report.add("ctrl.dirty_users_mean", count("ctrl.dirty_users") / n_ep, "users");
    report.add("ctrl.state_copy_s", tp.state_copy_s, "s");
    report.add("ctrl.dirty_region_s", tp.dirty_region_s, "s");
    report.add_count("ctrl.repair_shards", count("ctrl.repair_shards"));
    report.add("ctrl.repair_imbalance",
               sharded > 0 ? count("ctrl.repair_imbalance_sum") / sharded : 0.0, "ratio");
    report.add_count("ctrl.full_solves", count("ctrl.full_solves"));
    report.add_count("ctrl.rollbacks", count("ctrl.rollbacks"));
    report.add_count("ctrl.handoffs", count("ctrl.handoffs"));
    report.add_count("ctrl.events_invalid", count("ctrl.events_invalid"));
    report.add_count("ctrl.joins_rejected", count("ctrl.joins_rejected"));
    report.add("wlan.from_geometry_s", median(geometry_s_), "s");
    report.add("wlan.project_s", tp.project_s, "s");
    report.add("wlan.loads_s", tp.loads_s, "s");
    report.add_count("wlan.links", static_cast<double>(tp.links) / n_ep);
    report.add_count("core.groups_rebuilt", count("core.groups_rebuilt"));
    report.add_count("core.sets_rebuilt", count("core.sets_rebuilt"));
    report.add_count("core.sets_retired", count("core.sets_retired"));
    // A share, not seconds: at k=1 the overlay never runs and its time would
    // read exactly 0 on every run.
    report.add("assoc.kconn_share", tp.kconn_s / drain_total, "ratio");
    report.add_count("assoc.kconn_repaired_users", repaired);
    report.add("assoc.kconn_repaired_frac",
               repaired + carried > 0 ? repaired / (repaired + carried) : 0.0, "ratio");
    report.add_count("assoc.kconn_rebuilds", count("assoc.kconn_rebuilds"));
    std::printf("tracing overhead: traced drains %.4f s vs untraced %.4f s on the same "
                "%d epochs (%+.1f%%)\n",
                drain_total, drain_untraced, tp.epochs,
                (drain_total / drain_untraced - 1.0) * 100.0);

    if (!opt_.spans_path.empty()) {
      if (!write_spans(opt_.spans_path, w_.name, opt_.seed, tp.spans)) {
        throw std::runtime_error("cannot write spans to " + opt_.spans_path);
      }
      std::printf("spans: %zu written to %s\n", tp.spans.size(), opt_.spans_path.c_str());
    }
  }

  for (const std::string& e : errors_) std::fprintf(stderr, "check failed: %s\n", e.c_str());
  report.print_json(errors_.empty(), attempted, failed);
  return errors_.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    args.reject_unknown({"workload", "seed", "seconds", "trace", "lanes", "spans",
                         "counts-only"});
    Options opt;
    opt.w = &find_workload(args.get("workload", ""));
    opt.seed = args.get_u64("seed", 1);
    opt.seconds = args.get_double("seconds", 10.0);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.counts_only = args.get_bool("counts-only", false);
    opt.lanes = args.get_int("lanes", 2);
    opt.spans_path = args.get("spans", "");
    if (opt.seconds <= 0.0 || opt.lanes < 1) {
      throw std::invalid_argument("--seconds must be > 0 and --lanes >= 1");
    }
    Bench bench(opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
