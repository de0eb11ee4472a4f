// Telemetry instruments and the rows that derive their JSON schemas.
//
// Instruments are plain members of a telemetry struct, written directly on
// the hot path (inc/set/record; no lookup, no allocation). Each struct also
// lists one MetricRow per instrument, in schema order; metrics_json walks the
// rows to emit the document, and whatever else needs "every instrument" (the
// chaos oracles' invariant diff) walks the same rows.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/histogram.hpp"
#include "wmcast/util/json.hpp"

namespace wmcast::util {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }
  Json to_json() const { return static_cast<int64_t>(v_); }

 private:
  uint64_t v_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }
  Json to_json() const { return v_; }

 private:
  double v_ = 0.0;
};

/// One schema entry of telemetry struct T: its dotted JSON path (e.g.
/// "counters.engine.parallel.repair_shards"), how to read it — an instrument
/// member (Counter, Gauge or Histogram) or a value derived from the struct —
/// and whether it is invariant: the same at any thread count, never
/// wall-clock.
template <class T>
struct MetricRow {
  std::string path;
  std::function<Json(const T&)> value;
  bool invariant = true;

  template <class Instrument>
  MetricRow(std::string p, Instrument T::*m, bool inv = true)
      : MetricRow(std::move(p), [m](const T& t) { return (t.*m).to_json(); }, inv) {}
  MetricRow(std::string p, std::function<Json(const T&)> f, bool inv = true)
      : path(std::move(p)), value(std::move(f)), invariant(inv) {}
};

/// {"schema": schema, ...} with every row of `rows` (only the invariant ones
/// when !include_variant) written in order at its path. Rows sharing a path
/// prefix must be contiguous: an object is complete once a row leaves it.
template <class T>
Json metrics_json(const char* schema, const std::vector<MetricRow<T>>& rows, const T& t,
                  bool include_variant) {
  // open[d] = (key, object) at depth d of the current row's path; open[0] is
  // the document.
  std::vector<std::pair<std::string, Json>> open;
  open.emplace_back("", Json::object());
  open[0].second.set("schema", schema);
  const auto close_to = [&](size_t depth) {
    for (; open.size() > depth; open.pop_back()) {
      open[open.size() - 2].second.set(open.back().first, std::move(open.back().second));
    }
  };
  std::vector<std::string> keys;
  for (const MetricRow<T>& row : rows) {
    if (!row.invariant && !include_variant) continue;
    keys.clear();
    for (size_t from = 0;;) {
      const size_t dot = row.path.find('.', from);
      keys.push_back(row.path.substr(from, dot - from));
      if (dot == std::string::npos) break;
      from = dot + 1;
    }
    size_t depth = 1;
    while (depth < open.size() && depth < keys.size() && open[depth].first == keys[depth - 1]) {
      ++depth;
    }
    close_to(depth);
    for (; depth < keys.size(); ++depth) {
      WMCAST_ASSERT(open.back().second.find(keys[depth - 1]) == nullptr,
                    "metric rows sharing a path prefix must be contiguous");
      open.emplace_back(keys[depth - 1], Json::object());
    }
    open.back().second.set(keys.back(), row.value(t));
  }
  close_to(1);
  return std::move(open[0].second);
}

/// Human-readable view: one "path value" line per row; a histogram prints
/// its count and SLO quantiles.
template <class T>
std::string metrics_text(const std::vector<MetricRow<T>>& rows, const T& t) {
  std::string out;
  for (const MetricRow<T>& row : rows) {
    const Json v = row.value(t);
    out += "  " + row.path;
    if (v.is_object()) {
      for (const char* q : {"count", "p50", "p99", "p999"}) {
        out += std::string(" ") + q + "=" + v.find(q)->dump();
      }
    } else {
      out += " " + v.dump();
    }
    out += "\n";
  }
  return out;
}

}  // namespace wmcast::util
