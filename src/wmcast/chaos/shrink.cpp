#include "wmcast/chaos/shrink.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wmcast/util/assert.hpp"
#include "wmcast/wlan/serialization.hpp"

namespace wmcast::chaos {
namespace {

// Every predicate run re-runs an oracle family; the cap bounds a shrink
// of a pathological trace to something a CI job can afford. Greedy shrinking
// converges far below this on realistic failures.
constexpr int kMaxPredicateRuns = 400;

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

}  // namespace

ShrinkResult shrink_trace(const ctrl::EventTrace& trace,
                          const FailurePredicate& still_fails) {
  util::require(static_cast<bool>(still_fails), "shrink_trace: null predicate");
  ShrinkResult out;
  out.events_before = trace.n_events();
  out.epochs_before = trace.n_epochs();

  int runs = 0;
  const auto fails = [&](const ctrl::EventTrace& t) {
    ++runs;
    return still_fails(t);
  };
  if (!fails(trace)) {
    throw std::invalid_argument(
        "shrink_trace: input does not fail the predicate (nothing to shrink)");
  }
  ctrl::EventTrace cur = trace;

  // 1. Truncate trailing epochs: everything after the failure is dead weight.
  while (!cur.epochs.empty() && runs < kMaxPredicateRuns) {
    ctrl::EventTrace cand = cur;
    cand.epochs.pop_back();
    if (!fails(cand)) break;
    cur = std::move(cand);
  }

  // 2+3. Greedy fixpoint: empty whole epochs (keeping indices stable), then
  // carve event chunks out of each epoch, halving the chunk until singles.
  bool changed = true;
  while (changed && runs < kMaxPredicateRuns) {
    changed = false;

    for (size_t ep = 0; ep < cur.epochs.size() && runs < kMaxPredicateRuns; ++ep) {
      if (cur.epochs[ep].empty()) continue;
      ctrl::EventTrace cand = cur;
      cand.epochs[ep].clear();
      if (fails(cand)) {
        cur = std::move(cand);
        changed = true;
      }
    }

    for (size_t ep = 0; ep < cur.epochs.size(); ++ep) {
      size_t chunk = std::max<size_t>(1, cur.epochs[ep].size() / 2);
      while (runs < kMaxPredicateRuns) {
        for (size_t i = 0; i + chunk <= cur.epochs[ep].size() &&
                           runs < kMaxPredicateRuns;) {
          ctrl::EventTrace cand = cur;
          auto& ev = cand.epochs[ep];
          ev.erase(ev.begin() + static_cast<ptrdiff_t>(i),
                   ev.begin() + static_cast<ptrdiff_t>(i + chunk));
          if (fails(cand)) {
            cur = std::move(cand);
            changed = true;  // same i: the next chunk slid into place
          } else {
            i += chunk;
          }
        }
        if (chunk == 1) break;
        chunk /= 2;
      }
    }
  }

  out.trace = std::move(cur);
  out.events_after = out.trace.n_events();
  out.epochs_after = out.trace.n_epochs();
  out.predicate_runs = runs;
  return out;
}

std::string repro_to_text(const Repro& repro) {
  std::ostringstream os;
  os << "wmcast-repro v1\n";
  os << "check " << one_line(repro.check) << '\n';
  os << "detail " << one_line(repro.detail) << '\n';
  os << "seed " << repro.seed << '\n';
  os << "profile " << one_line(repro.profile) << '\n';
  os << "solver " << one_line(repro.solver) << '\n';
  os << "threads " << repro.threads << '\n';
  const auto sc_lines = split_lines(wlan::to_text(repro.scenario));
  os << "scenario_lines " << sc_lines.size() << '\n';
  for (const auto& l : sc_lines) os << l << '\n';
  const auto tr_lines = split_lines(ctrl::trace_to_text(repro.trace));
  os << "trace_lines " << tr_lines.size() << '\n';
  for (const auto& l : tr_lines) os << l << '\n';
  os << "end\n";
  return os.str();
}

Repro repro_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&](const char* what) -> const std::string& {
    if (!std::getline(in, line)) {
      throw std::invalid_argument(std::string("repro: truncated before ") + what);
    }
    return line;
  };
  const auto expect_kv = [&](const std::string& key) -> std::string {
    const std::string& l = next_line(key.c_str());
    if (l == key) return {};
    if (l.size() > key.size() && l.compare(0, key.size(), key) == 0 &&
        l[key.size()] == ' ') {
      return l.substr(key.size() + 1);
    }
    throw std::invalid_argument("repro: expected '" + key + " ...', got '" + l + "'");
  };
  const auto parse_int = [](const std::string& v, const char* what) -> long long {
    try {
      size_t pos = 0;
      const long long n = std::stoll(v, &pos);
      if (pos != v.size()) throw std::invalid_argument("trailing characters");
      return n;
    } catch (const std::exception&) {
      throw std::invalid_argument(std::string("repro: bad ") + what + " '" + v + "'");
    }
  };
  const auto read_block = [&](size_t n, const char* what) -> std::string {
    std::string block;
    for (size_t i = 0; i < n; ++i) {
      block += next_line(what);
      block += '\n';
    }
    return block;
  };

  if (next_line("header") != "wmcast-repro v1") {
    throw std::invalid_argument("repro: missing 'wmcast-repro v1' header");
  }
  Repro r;
  r.check = expect_kv("check");
  r.detail = expect_kv("detail");
  {
    const std::string v = expect_kv("seed");
    try {
      size_t pos = 0;
      if (!v.empty() && (v[0] == '-' || v[0] == '+')) throw std::invalid_argument("sign");
      r.seed = std::stoull(v, &pos);
      if (pos != v.size()) throw std::invalid_argument("trailing characters");
    } catch (const std::exception&) {
      throw std::invalid_argument("repro: bad seed '" + v + "'");
    }
  }
  r.profile = expect_kv("profile");
  r.solver = expect_kv("solver");
  const long long threads = parse_int(expect_kv("threads"), "threads");
  if (threads < 1 || threads > 1024) throw std::invalid_argument("repro: bad thread count");
  r.threads = static_cast<int>(threads);

  const long long sc_n = parse_int(expect_kv("scenario_lines"), "scenario_lines");
  if (sc_n < 0) throw std::invalid_argument("repro: negative scenario_lines");
  r.scenario = wlan::from_text(read_block(static_cast<size_t>(sc_n), "scenario"));
  const long long tr_n = parse_int(expect_kv("trace_lines"), "trace_lines");
  if (tr_n < 0) throw std::invalid_argument("repro: negative trace_lines");
  r.trace = ctrl::trace_from_text(read_block(static_cast<size_t>(tr_n), "trace"));

  if (next_line("trailer") != "end") {
    throw std::invalid_argument("repro: missing 'end' trailer");
  }
  return r;
}

bool save_repro(const Repro& repro, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << repro_to_text(repro);
  return static_cast<bool>(out);
}

Repro load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("repro: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return repro_from_text(buf.str());
}

}  // namespace wmcast::chaos
