#include "wmcast/wlan/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "wmcast/util/assert.hpp"
#include "wmcast/util/thread_pool.hpp"

namespace wmcast::wlan {

namespace {

/// One candidate AP of one user, as found by the grid query.
struct Cand {
  double dist;
  int ap;
  int step;  // index into table.steps()
};

/// Strongest-first order of a geometric row: closer = stronger, AP id ties.
bool closer(const Cand& a, const Cand& b) {
  return a.dist != b.dist ? a.dist < b.dist : a.ap < b.ap;
}

/// Gathers the in-range candidates of a point from the AP grid. The grid
/// over-approximates by cell, so each candidate is distance-filtered exactly;
/// rate_for_distance is inclusive at each threshold, hence `d <= radius`
/// keeps an AP at exactly the maximum range.
void query_row(const GridIndex& grid, const std::vector<Point>& ap_pos,
               const RateTable& table, double radius, const Point& up,
               std::vector<Cand>& out) {
  out.clear();
  grid.for_each_candidate(up, radius, [&](int a) {
    const double d = distance(ap_pos[static_cast<size_t>(a)], up);
    const int step = table.step_index_for_distance(d);
    if (step >= 0) out.push_back({d, a, step});
  });
  std::sort(out.begin(), out.end(), closer);
}

/// A block of entries moving from `src` to `dst` inside one array.
struct Run {
  int64_t src;
  int64_t dst;
  int64_t len;
};

/// Moves every run of `v` in place. Sources ascend and are disjoint, and so
/// do destinations. A run moving right can only land on the sources of later
/// right-moving runs, and a run moving left only on those of earlier
/// left-moving runs: the right-movers go last to first, then the left-movers
/// first to last.
template <typename T>
void move_runs(std::vector<T>& v, const std::vector<Run>& runs) {
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    if (it->dst > it->src) {
      std::copy_backward(v.begin() + it->src, v.begin() + it->src + it->len,
                         v.begin() + it->dst + it->len);
    }
  }
  for (const Run& r : runs) {
    if (r.dst < r.src) {
      std::copy(v.begin() + r.src, v.begin() + r.src + r.len, v.begin() + r.dst);
    }
  }
}

/// move_runs that also maps every moved entry through `f` — runs that stay
/// put included.
template <typename T, typename F>
void move_runs(std::vector<T>& v, const std::vector<Run>& runs, F f) {
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    if (it->dst >= it->src) {
      for (int64_t i = it->len - 1; i >= 0; --i) {
        v[static_cast<size_t>(it->dst + i)] = f(v[static_cast<size_t>(it->src + i)]);
      }
    }
  }
  for (const Run& r : runs) {
    if (r.dst < r.src) {
      for (int64_t i = 0; i < r.len; ++i) {
        v[static_cast<size_t>(r.dst + i)] = f(v[static_cast<size_t>(r.src + i)]);
      }
    }
  }
}

}  // namespace

Scenario Scenario::from_geometry(std::vector<Point> ap_pos, std::vector<Point> user_pos,
                                 std::vector<int> user_session,
                                 std::vector<double> session_rate_mbps,
                                 const RateTable& table, double load_budget,
                                 util::ThreadPool* pool) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(ap_pos.size());
  sc.n_users_ = static_cast<int>(user_pos.size());
  sc.ap_pos_ = std::move(ap_pos);
  sc.user_pos_ = std::move(user_pos);
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.table_ = table;
  sc.validate_core();
  sc.grid_ = GridIndex(sc.ap_pos_, table.range_m());
  sc.build_geometric_rows(pool);
  sc.build_transpose();
  sc.finalize_stats();
  return sc;
}

Scenario Scenario::from_geometry_dense(std::vector<Point> ap_pos,
                                       std::vector<Point> user_pos,
                                       std::vector<int> user_session,
                                       std::vector<double> session_rate_mbps,
                                       const RateTable& table, double load_budget) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(ap_pos.size());
  sc.n_users_ = static_cast<int>(user_pos.size());
  sc.ap_pos_ = std::move(ap_pos);
  sc.user_pos_ = std::move(user_pos);
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.table_ = table;
  sc.validate_core();
  sc.grid_ = GridIndex(sc.ap_pos_, table.range_m());

  // The pre-sparse build: materialize the full AP×user matrix with the
  // O(n_aps · n_users) pairwise scan, then project its positive entries.
  std::vector<double> dense(static_cast<size_t>(sc.n_aps_) *
                            static_cast<size_t>(sc.n_users_));
  for (int a = 0; a < sc.n_aps_; ++a) {
    for (int u = 0; u < sc.n_users_; ++u) {
      const double d = distance(sc.ap_pos_[static_cast<size_t>(a)],
                                sc.user_pos_[static_cast<size_t>(u)]);
      dense[static_cast<size_t>(a) * static_cast<size_t>(sc.n_users_) +
            static_cast<size_t>(u)] = table.rate_for_distance(d);
    }
  }

  const int n_steps = static_cast<int>(table.steps().size());
  sc.rate_levels_.resize(static_cast<size_t>(n_steps));
  for (int i = 0; i < n_steps; ++i) {
    sc.rate_levels_[static_cast<size_t>(n_steps - 1 - i)] =
        table.steps()[static_cast<size_t>(i)].rate_mbps;
  }
  sc.rate_level_count_.assign(static_cast<size_t>(n_steps), 0);

  sc.user_row_.assign(static_cast<size_t>(sc.n_users_) + 1, 0);
  sc.strongest_ap_.assign(static_cast<size_t>(sc.n_users_), kNoAp);
  std::vector<Cand> cand;
  for (int u = 0; u < sc.n_users_; ++u) {
    cand.clear();
    const Point up = sc.user_pos_[static_cast<size_t>(u)];
    for (int a = 0; a < sc.n_aps_; ++a) {
      if (dense[static_cast<size_t>(a) * static_cast<size_t>(sc.n_users_) +
                static_cast<size_t>(u)] <= 0.0) {
        continue;
      }
      const double d = distance(sc.ap_pos_[static_cast<size_t>(a)], up);
      cand.push_back({d, a, table.step_index_for_distance(d)});
    }
    std::sort(cand.begin(), cand.end(), closer);
    const auto base = static_cast<int64_t>(sc.nbr_ap_.size());
    for (const Cand& c : cand) {
      sc.nbr_ap_.push_back(c.ap);
      sc.nbr_rate_.push_back(table.steps()[static_cast<size_t>(c.step)].rate_mbps);
      ++sc.rate_level_count_[static_cast<size_t>(n_steps - 1 - c.step)];
    }
    sc.nbr_by_ap_.resize(sc.nbr_ap_.size());
    int* by = sc.nbr_by_ap_.data() + base;
    std::iota(by, by + cand.size(), 0);
    std::sort(by, by + cand.size(), [&](int x, int y) {
      return sc.nbr_ap_[static_cast<size_t>(base + x)] <
             sc.nbr_ap_[static_cast<size_t>(base + y)];
    });
    if (!cand.empty()) {
      sc.strongest_ap_[static_cast<size_t>(u)] = sc.nbr_ap_[static_cast<size_t>(base)];
    }
    sc.user_row_[static_cast<size_t>(u) + 1] = static_cast<int64_t>(sc.nbr_ap_.size());
  }
  sc.build_transpose();
  sc.finalize_stats();
  return sc;
}

Scenario Scenario::from_link_rates(std::vector<std::vector<double>> link_rate,
                                   std::vector<int> user_session,
                                   std::vector<double> session_rate_mbps,
                                   double load_budget) {
  Scenario sc;
  sc.n_aps_ = static_cast<int>(link_rate.size());
  sc.n_users_ = sc.n_aps_ > 0 ? static_cast<int>(link_rate[0].size())
                              : static_cast<int>(user_session.size());
  sc.user_session_ = std::move(user_session);
  sc.session_rate_ = std::move(session_rate_mbps);
  sc.load_budget_ = load_budget;
  sc.validate_core();
  for (int a = 0; a < sc.n_aps_; ++a) {
    util::require(static_cast<int>(link_rate[static_cast<size_t>(a)].size()) == sc.n_users_,
                  "Scenario: ragged link-rate matrix");
    for (const double r : link_rate[static_cast<size_t>(a)]) {
      util::require(r >= 0.0, "Scenario: link rates must be non-negative");
    }
  }

  // Project the dense input to CSR, keeping only positive rates. Strongest
  // order for explicit instances is by rate (higher = stronger), AP id ties.
  sc.user_row_.assign(static_cast<size_t>(sc.n_users_) + 1, 0);
  sc.strongest_ap_.assign(static_cast<size_t>(sc.n_users_), kNoAp);
  std::vector<std::pair<double, int>> cand;  // (rate, ap)
  for (int u = 0; u < sc.n_users_; ++u) {
    cand.clear();
    for (int a = 0; a < sc.n_aps_; ++a) {
      const double r = link_rate[static_cast<size_t>(a)][static_cast<size_t>(u)];
      if (r > 0.0) cand.emplace_back(r, a);
    }
    std::sort(cand.begin(), cand.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });
    const auto base = static_cast<int64_t>(sc.nbr_ap_.size());
    for (const auto& [r, a] : cand) {
      sc.nbr_ap_.push_back(a);
      sc.nbr_rate_.push_back(r);
    }
    sc.nbr_by_ap_.resize(sc.nbr_ap_.size());
    int* by = sc.nbr_by_ap_.data() + base;
    std::iota(by, by + cand.size(), 0);
    std::sort(by, by + cand.size(), [&](int x, int y) {
      return sc.nbr_ap_[static_cast<size_t>(base + x)] <
             sc.nbr_ap_[static_cast<size_t>(base + y)];
    });
    if (!cand.empty()) {
      sc.strongest_ap_[static_cast<size_t>(u)] = sc.nbr_ap_[static_cast<size_t>(base)];
    }
    sc.user_row_[static_cast<size_t>(u) + 1] = static_cast<int64_t>(sc.nbr_ap_.size());
  }

  // Explicit instances have no rate table: the levels are whatever rates
  // actually occur.
  sc.rate_levels_.assign(sc.nbr_rate_.begin(), sc.nbr_rate_.end());
  std::sort(sc.rate_levels_.begin(), sc.rate_levels_.end());
  sc.rate_levels_.erase(std::unique(sc.rate_levels_.begin(), sc.rate_levels_.end()),
                        sc.rate_levels_.end());
  sc.rate_level_count_.assign(sc.rate_levels_.size(), 0);
  for (const double r : sc.nbr_rate_) {
    const auto i = static_cast<size_t>(
        std::lower_bound(sc.rate_levels_.begin(), sc.rate_levels_.end(), r) -
        sc.rate_levels_.begin());
    ++sc.rate_level_count_[i];
  }

  sc.build_transpose();
  sc.finalize_stats();
  return sc;
}

void Scenario::validate_core() const {
  util::require(static_cast<int>(user_session_.size()) == n_users_,
                "Scenario: user_session size mismatch");
  util::require(!session_rate_.empty() || n_users_ == 0,
                "Scenario: need at least one session");
  util::require(load_budget_ > 0.0 && load_budget_ <= 1.0,
                "Scenario: load budget must be in (0, 1]");
  for (const double r : session_rate_) {
    util::require(r > 0.0, "Scenario: session rates must be positive");
  }
  for (int u = 0; u < n_users_; ++u) {
    const int s = user_session_[static_cast<size_t>(u)];
    util::require(s >= 0 && s < n_sessions(), "Scenario: user requests invalid session");
  }
}

void Scenario::build_geometric_rows(util::ThreadPool* pool) {
  const RateTable& table = *table_;
  const double radius = table.range_m();
  const int n_steps = static_cast<int>(table.steps().size());

  rate_levels_.resize(static_cast<size_t>(n_steps));
  for (int i = 0; i < n_steps; ++i) {
    rate_levels_[static_cast<size_t>(n_steps - 1 - i)] =
        table.steps()[static_cast<size_t>(i)].rate_mbps;
  }
  rate_level_count_.assign(static_cast<size_t>(n_steps), 0);

  const bool parallel = pool != nullptr && pool->size() > 1 && n_users_ > 1;
  const int lanes = parallel ? pool->size() : 1;

  // Pass 1: exact per-user candidate counts. The candidate predicate
  // (distance within the basic-rate radius) is the same one pass 2 filters
  // by, so the counts are the row lengths.
  user_row_.assign(static_cast<size_t>(n_users_) + 1, 0);
  const auto count_user = [&](int u) {
    const Point up = user_pos_[static_cast<size_t>(u)];
    int64_t k = 0;
    grid_.for_each_candidate(up, radius, [&](int a) {
      if (distance(ap_pos_[static_cast<size_t>(a)], up) <= radius) ++k;
    });
    user_row_[static_cast<size_t>(u) + 1] = k;
  };
  if (parallel) {
    pool->parallel_for(0, n_users_, [&](int64_t b, int64_t e, int) {
      for (int64_t u = b; u < e; ++u) count_user(static_cast<int>(u));
    });
  } else {
    for (int u = 0; u < n_users_; ++u) count_user(u);
  }

  // Serial exclusive scan -> CSR offsets.
  for (int u = 0; u < n_users_; ++u) {
    user_row_[static_cast<size_t>(u) + 1] += user_row_[static_cast<size_t>(u)];
  }
  const int64_t n_links = user_row_[static_cast<size_t>(n_users_)];
  nbr_ap_.resize(static_cast<size_t>(n_links));
  nbr_rate_.resize(static_cast<size_t>(n_links));
  nbr_by_ap_.resize(static_cast<size_t>(n_links));
  strongest_ap_.assign(static_cast<size_t>(n_users_), kNoAp);

  // Pass 2: fill the rows. Each user's row is a pure function of the inputs
  // and lands in its own pre-sized slice, so static chunking makes the build
  // bit-identical at any lane count; per-lane scratch and per-lane level
  // counters (summed afterwards — integer addition commutes) avoid sharing.
  std::vector<std::vector<Cand>> scratch(static_cast<size_t>(lanes));
  std::vector<std::vector<int64_t>> lane_level(
      static_cast<size_t>(lanes), std::vector<int64_t>(static_cast<size_t>(n_steps), 0));
  const auto fill_user = [&](int u, int lane) {
    auto& cand = scratch[static_cast<size_t>(lane)];
    query_row(grid_, ap_pos_, table, radius, user_pos_[static_cast<size_t>(u)], cand);
    const int64_t base = user_row_[static_cast<size_t>(u)];
    WMCAST_ASSERT(static_cast<int64_t>(cand.size()) ==
                      user_row_[static_cast<size_t>(u) + 1] - base,
                  "Scenario: candidate count drifted between passes");
    auto& levels = lane_level[static_cast<size_t>(lane)];
    for (size_t i = 0; i < cand.size(); ++i) {
      nbr_ap_[static_cast<size_t>(base) + i] = cand[i].ap;
      nbr_rate_[static_cast<size_t>(base) + i] =
          table.steps()[static_cast<size_t>(cand[i].step)].rate_mbps;
      ++levels[static_cast<size_t>(n_steps - 1 - cand[i].step)];
    }
    int* by = nbr_by_ap_.data() + base;
    std::iota(by, by + cand.size(), 0);
    std::sort(by, by + cand.size(), [&](int x, int y) {
      return nbr_ap_[static_cast<size_t>(base + x)] <
             nbr_ap_[static_cast<size_t>(base + y)];
    });
    if (!cand.empty()) {
      strongest_ap_[static_cast<size_t>(u)] = nbr_ap_[static_cast<size_t>(base)];
    }
  };
  if (parallel) {
    pool->parallel_for(0, n_users_, [&](int64_t b, int64_t e, int lane) {
      for (int64_t u = b; u < e; ++u) fill_user(static_cast<int>(u), lane);
    });
  } else {
    for (int u = 0; u < n_users_; ++u) fill_user(u, 0);
  }
  for (const auto& levels : lane_level) {
    for (int i = 0; i < n_steps; ++i) {
      rate_level_count_[static_cast<size_t>(i)] += levels[static_cast<size_t>(i)];
    }
  }
}

void Scenario::build_transpose() {
  // Counting sort of the links by AP; visiting users ascending keeps each
  // AP's member list ascending by user id (the users_of_ap contract).
  ap_row_.assign(static_cast<size_t>(n_aps_) + 1, 0);
  for (const int a : nbr_ap_) ++ap_row_[static_cast<size_t>(a) + 1];
  for (int a = 0; a < n_aps_; ++a) {
    ap_row_[static_cast<size_t>(a) + 1] += ap_row_[static_cast<size_t>(a)];
  }
  ap_user_.resize(nbr_ap_.size());
  ap_user_rate_.resize(nbr_ap_.size());
  std::vector<int64_t> fill(ap_row_.begin(), ap_row_.end() - 1);
  for (int u = 0; u < n_users_; ++u) {
    for (int64_t pos = user_row_[static_cast<size_t>(u)];
         pos < user_row_[static_cast<size_t>(u) + 1]; ++pos) {
      const auto a = static_cast<size_t>(nbr_ap_[static_cast<size_t>(pos)]);
      const auto at = static_cast<size_t>(fill[a]++);
      ap_user_[at] = u;
      ap_user_rate_[at] = nbr_rate_[static_cast<size_t>(pos)];
    }
  }
}

void Scenario::finalize_stats() {
  n_coverable_ = 0;
  for (int u = 0; u < n_users_; ++u) {
    if (user_row_[static_cast<size_t>(u) + 1] > user_row_[static_cast<size_t>(u)]) {
      ++n_coverable_;
    }
  }
  update_basic_rate();
}

void Scenario::update_basic_rate() {
  basic_rate_ = 0.0;
  for (size_t i = 0; i < rate_levels_.size(); ++i) {
    if (rate_level_count_[i] > 0) {
      basic_rate_ = rate_levels_[i];
      break;
    }
  }
}

size_t Scenario::memory_bytes() const {
  const auto vb = [](const auto& v) { return v.size() * sizeof(*v.data()); };
  return vb(user_session_) + vb(session_rate_) + vb(user_row_) + vb(nbr_ap_) +
         vb(nbr_rate_) + vb(nbr_by_ap_) + vb(ap_row_) + vb(ap_user_) +
         vb(ap_user_rate_) + vb(strongest_ap_) + vb(rate_levels_) +
         vb(rate_level_count_) + vb(ap_pos_) + vb(user_pos_);
}

Scenario Scenario::with_budget(double load_budget) const {
  Scenario sc = *this;
  sc.load_budget_ = load_budget;
  util::require(load_budget > 0.0 && load_budget <= 1.0,
                "Scenario: load budget must be in (0, 1]");
  return sc;
}

Scenario Scenario::with_session_rates(std::vector<double> session_rate_mbps) const {
  util::require(session_rate_mbps.size() == session_rate_.size(),
                "Scenario: session rate count mismatch");
  Scenario sc = *this;
  sc.session_rate_ = std::move(session_rate_mbps);
  for (const double r : sc.session_rate_) {
    util::require(r > 0.0, "Scenario: session rates must be positive");
  }
  return sc;
}

std::string first_difference(const Scenario& a, const Scenario& b) {
  const auto same = [](const auto& x, const auto& y) { return x == y; };
  const std::pair<const char*, bool> fields[] = {
      {"n_aps", a.n_aps_ == b.n_aps_},
      {"n_users", a.n_users_ == b.n_users_},
      {"user_session", same(a.user_session_, b.user_session_)},
      {"session_rate", same(a.session_rate_, b.session_rate_)},
      {"load_budget", a.load_budget_ == b.load_budget_},
      {"basic_rate", a.basic_rate_ == b.basic_rate_},
      {"n_coverable", a.n_coverable_ == b.n_coverable_},
      {"user_row", same(a.user_row_, b.user_row_)},
      {"nbr_ap", same(a.nbr_ap_, b.nbr_ap_)},
      {"nbr_rate", same(a.nbr_rate_, b.nbr_rate_)},
      {"nbr_by_ap", same(a.nbr_by_ap_, b.nbr_by_ap_)},
      {"ap_row", same(a.ap_row_, b.ap_row_)},
      {"ap_user", same(a.ap_user_, b.ap_user_)},
      {"ap_user_rate", same(a.ap_user_rate_, b.ap_user_rate_)},
      {"strongest_ap", same(a.strongest_ap_, b.strongest_ap_)},
      {"rate_levels", same(a.rate_levels_, b.rate_levels_)},
      {"rate_level_counts", same(a.rate_level_count_, b.rate_level_count_)},
      {"ap_positions", same(a.ap_pos_, b.ap_pos_)},
      {"user_positions", same(a.user_pos_, b.user_pos_)},
      {"rate_table", same(a.table_, b.table_)},
  };
  for (const auto& [name, equal] : fields) {
    if (!equal) return name;
  }
  return "";
}

void Scenario::set_session_rate(int s, double rate_mbps) {
  util::require(s >= 0 && s < n_sessions(), "set_session_rate: unknown session");
  util::require(std::isfinite(rate_mbps) && rate_mbps > 0.0,
                "Scenario: session rates must be positive");
  session_rate_[static_cast<size_t>(s)] = rate_mbps;
}

int Scenario::patch(const ScenarioDelta& delta, std::vector<int>* dirty_aps) {
  util::require(has_geometry() && table_.has_value(), "patch: needs a geometric scenario");
  const RateTable& table = *table_;
  const double radius = table.range_m();
  const int n_steps = static_cast<int>(table.steps().size());
  const auto level_of = [&](int step) { return static_cast<size_t>(n_steps - 1 - step); };
  const int n_old = n_users_;

  const auto& erased = delta.erased;
  for (size_t i = 0; i < erased.size(); ++i) {
    util::require(erased[i] >= 0 && erased[i] < n_old, "patch: erase of unknown user");
    util::require(i == 0 || erased[i - 1] < erased[i], "patch: erased users must ascend");
  }
  const auto is_erased = [&](int u) {
    return std::binary_search(erased.begin(), erased.end(), u);
  };
  const auto& inserted = delta.inserted;
  for (size_t i = 0; i < inserted.size(); ++i) {
    const auto& in = inserted[i];
    util::require(in.before >= 0 && in.before <= n_old, "patch: insert point out of range");
    util::require(i == 0 || inserted[i - 1].before <= in.before,
                  "patch: inserts must ascend");
    util::require(in.session >= 0 && in.session < n_sessions(),
                  "patch: insert of unknown session");
    util::require(std::isfinite(in.pos.x) && std::isfinite(in.pos.y),
                  "patch: non-finite position");
  }
  std::vector<std::pair<int, Point>> moved = delta.moved;
  for (const auto& [u, p] : moved) {
    util::require(u >= 0 && u < n_old, "patch: move of unknown user");
    util::require(std::isfinite(p.x) && std::isfinite(p.y), "patch: non-finite position");
    util::require(!is_erased(u), "patch: move of an erased user");
  }
  for (const auto& [u, s] : delta.rezapped) {
    util::require(u >= 0 && u < n_old, "patch: rezap of unknown user");
    util::require(s >= 0 && s < n_sessions(), "patch: rezap to unknown session");
    util::require(!is_erased(u), "patch: rezap of an erased user");
  }

  // Every AP whose member row or (ap, session) membership may move (sorted
  // and deduplicated below). These are also the transpose rows to splice.
  std::vector<int> dirty;

  // Session switches keep the row but change every (ap, session) group the
  // user belongs to.
  for (const auto& [u, s] : delta.rezapped) {
    if (user_session_[static_cast<size_t>(u)] == s) continue;
    user_session_[static_cast<size_t>(u)] = s;
    for (const int a : aps_of_user(u)) dirty.push_back(a);
  }

  // Moves: last position wins per user.
  std::stable_sort(moved.begin(), moved.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  size_t n_moved = 0;
  for (size_t i = 0; i < moved.size(); ++i) {
    if (i + 1 == moved.size() || moved[i + 1].first != moved[i].first) {
      moved[n_moved++] = moved[i];
    }
  }
  moved.resize(n_moved);

  // Retire the old rows of moved and erased users, at their old positions.
  const auto retire_row = [&](int u) {
    const Point up = user_pos_[static_cast<size_t>(u)];
    const int64_t b = user_row_[static_cast<size_t>(u)];
    const int64_t e = user_row_[static_cast<size_t>(u) + 1];
    for (int64_t pos = b; pos < e; ++pos) {
      const int a = nbr_ap_[static_cast<size_t>(pos)];
      dirty.push_back(a);
      const int step =
          table.step_index_for_distance(distance(ap_pos_[static_cast<size_t>(a)], up));
      WMCAST_ASSERT(step >= 0, "patch: stored link out of range");
      --rate_level_count_[level_of(step)];
    }
    if (e > b) --n_coverable_;
  };
  for (const auto& mv : moved) retire_row(mv.first);
  for (const int u : erased) retire_row(u);

  // Lay out the new rows in one merged walk over the edits: runs of kept rows
  // (shifted in place below) alternate with fresh rows queried from the grid.
  // Inserts land in front of old row `before`; a moved row replaces itself.
  struct Fresh {
    int row;
    Point pos;
    int session;
    size_t lo;   // its candidates in `links`
    size_t hi;
    int64_t at;  // its first link position in the new CSR
  };
  std::vector<Fresh> fresh;
  std::vector<Cand> links;
  std::vector<Cand> cand;
  std::vector<Run> row_runs;
  std::vector<Run> link_runs;
  int cur = 0;     // next old row not yet laid out
  int row = 0;     // next new row
  int64_t at = 0;  // next new link position
  const auto keep_until = [&](int upto) {
    if (upto <= cur) return;
    const int64_t lo = user_row_[static_cast<size_t>(cur)];
    const int64_t hi = user_row_[static_cast<size_t>(upto)];
    row_runs.push_back({cur, row, upto - cur});
    link_runs.push_back({lo, at, hi - lo});
    row += upto - cur;
    at += hi - lo;
    cur = upto;
  };
  const auto add_fresh = [&](const Point& p, int session) {
    query_row(grid_, ap_pos_, table, radius, p, cand);
    fresh.push_back({row, p, session, links.size(), links.size() + cand.size(), at});
    for (const Cand& c : cand) {
      dirty.push_back(c.ap);
      ++rate_level_count_[level_of(c.step)];
    }
    if (!cand.empty()) ++n_coverable_;
    links.insert(links.end(), cand.begin(), cand.end());
    ++row;
    at += static_cast<int64_t>(cand.size());
  };
  constexpr int kEnd = std::numeric_limits<int>::max();
  size_t im = 0;
  size_t ie = 0;
  size_t ii = 0;
  while (true) {
    const int next_ins = ii < inserted.size() ? inserted[ii].before : kEnd;
    const int next_mv = im < moved.size() ? moved[im].first : kEnd;
    const int next_er = ie < erased.size() ? erased[ie] : kEnd;
    const int p = std::min({next_ins, next_mv, next_er});
    if (p == kEnd) break;
    keep_until(p);
    if (next_ins == p) {
      add_fresh(inserted[ii].pos, inserted[ii].session);
      ++ii;
    } else if (next_mv == p) {
      add_fresh(moved[im].second, user_session_[static_cast<size_t>(p)]);
      ++im;
      cur = p + 1;
    } else {
      ++ie;
      cur = p + 1;
    }
  }
  keep_until(n_old);
  const int n_new = row;
  const int64_t n_links_new = at;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  // Old row -> new row of every kept row; -1 for the retired ones.
  std::vector<int> new_row(static_cast<size_t>(n_old), -1);
  for (const Run& r : row_runs) {
    std::iota(new_row.begin() + r.src, new_row.begin() + r.src + r.len,
              static_cast<int>(r.dst));
  }

  // Transpose, dirty APs: survivors renumbered, merged with the fresh rows'
  // links (both lists ascend by new row).
  std::vector<std::pair<int, size_t>> adds;  // (ap, link), row-ascending per AP
  std::vector<int> link_row(links.size());
  for (const Fresh& f : fresh) {
    for (size_t i = f.lo; i < f.hi; ++i) {
      adds.emplace_back(links[i].ap, i);
      link_row[i] = f.row;
    }
  }
  std::stable_sort(adds.begin(), adds.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<int64_t> seg_len(dirty.size(), 0);
  std::vector<int> seg_user;
  std::vector<double> seg_rate;
  size_t ia = 0;
  for (size_t d = 0; d < dirty.size(); ++d) {
    const int a = dirty[d];
    while (ia < adds.size() && adds[ia].first < a) ++ia;
    const size_t before = seg_user.size();
    int64_t m = ap_row_[static_cast<size_t>(a)];
    const int64_t e = ap_row_[static_cast<size_t>(a) + 1];
    while (true) {
      while (m < e && new_row[static_cast<size_t>(ap_user_[static_cast<size_t>(m)])] < 0) ++m;
      const bool has_add = ia < adds.size() && adds[ia].first == a;
      if (m == e && !has_add) break;
      const int kept = m < e ? new_row[static_cast<size_t>(ap_user_[static_cast<size_t>(m)])] : 0;
      if (has_add && (m == e || link_row[adds[ia].second] < kept)) {
        seg_user.push_back(link_row[adds[ia].second]);
        seg_rate.push_back(
            table.steps()[static_cast<size_t>(links[adds[ia].second].step)].rate_mbps);
        ++ia;
      } else {
        seg_user.push_back(kept);
        seg_rate.push_back(ap_user_rate_[static_cast<size_t>(m)]);
        ++m;
      }
    }
    seg_len[d] = static_cast<int64_t>(seg_user.size() - before);
  }

  // Transpose, every other AP: the same members, moved as runs into their
  // new offsets and renumbered on the way when rows shifted.
  std::vector<Run> ap_runs;
  std::vector<int64_t> new_ap_row(static_cast<size_t>(n_aps_) + 1, 0);
  size_t d = 0;
  for (int a = 0; a < n_aps_; ++a) {
    const int64_t b = ap_row_[static_cast<size_t>(a)];
    const int64_t e = ap_row_[static_cast<size_t>(a) + 1];
    const int64_t dst = new_ap_row[static_cast<size_t>(a)];
    if (d < dirty.size() && dirty[d] == a) {
      new_ap_row[static_cast<size_t>(a) + 1] = dst + seg_len[d++];
      continue;
    }
    new_ap_row[static_cast<size_t>(a) + 1] = dst + (e - b);
    if (!ap_runs.empty() && ap_runs.back().src + ap_runs.back().len == b &&
        ap_runs.back().dst + ap_runs.back().len == dst) {
      ap_runs.back().len += e - b;
    } else if (e > b) {
      ap_runs.push_back({b, dst, e - b});
    }
  }
  const auto grow = [](auto& v, int64_t n) {
    if (static_cast<int64_t>(v.size()) < n) v.resize(static_cast<size_t>(n));
  };
  grow(ap_user_, n_links_new);
  grow(ap_user_rate_, n_links_new);
  if (std::any_of(row_runs.begin(), row_runs.end(),
                  [](const Run& r) { return r.dst != r.src; })) {
    move_runs(ap_user_, ap_runs, [&](int u) { return new_row[static_cast<size_t>(u)]; });
  } else {
    move_runs(ap_user_, ap_runs);
  }
  move_runs(ap_user_rate_, ap_runs);
  int64_t off = 0;
  for (size_t i = 0; i < dirty.size(); ++i) {
    const auto dst = static_cast<size_t>(new_ap_row[static_cast<size_t>(dirty[i])]);
    std::copy_n(seg_user.begin() + off, seg_len[i], ap_user_.begin() + dst);
    std::copy_n(seg_rate.begin() + off, seg_len[i], ap_user_rate_.begin() + dst);
    off += seg_len[i];
  }
  ap_user_.resize(static_cast<size_t>(n_links_new));
  ap_user_rate_.resize(static_cast<size_t>(n_links_new));
  ap_row_ = std::move(new_ap_row);

  // Per-row arrays: shift the kept runs, then write the fresh rows. Offsets
  // move with their rows and by their run's link shift.
  const int n_max = std::max(n_old, n_new);
  grow(user_session_, n_max);
  grow(user_pos_, n_max);
  grow(strongest_ap_, n_max);
  grow(user_row_, n_max + 1);
  move_runs(user_session_, row_runs);
  move_runs(user_pos_, row_runs);
  move_runs(strongest_ap_, row_runs);
  move_runs(user_row_, row_runs);
  for (size_t i = 0; i < row_runs.size(); ++i) {
    const int64_t shift = link_runs[i].dst - link_runs[i].src;
    if (shift == 0) continue;
    const auto b = static_cast<size_t>(row_runs[i].dst);
    for (size_t r = b; r < b + static_cast<size_t>(row_runs[i].len); ++r) {
      user_row_[r] += shift;
    }
  }
  grow(nbr_ap_, n_links_new);
  grow(nbr_rate_, n_links_new);
  grow(nbr_by_ap_, n_links_new);
  move_runs(nbr_ap_, link_runs);
  move_runs(nbr_rate_, link_runs);
  move_runs(nbr_by_ap_, link_runs);
  for (const Fresh& f : fresh) {
    const auto r = static_cast<size_t>(f.row);
    const auto len = static_cast<int64_t>(f.hi - f.lo);
    user_session_[r] = f.session;
    user_pos_[r] = f.pos;
    user_row_[r] = f.at;
    for (int64_t i = 0; i < len; ++i) {
      const Cand& c = links[f.lo + static_cast<size_t>(i)];
      nbr_ap_[static_cast<size_t>(f.at + i)] = c.ap;
      nbr_rate_[static_cast<size_t>(f.at + i)] =
          table.steps()[static_cast<size_t>(c.step)].rate_mbps;
    }
    int* by = nbr_by_ap_.data() + f.at;
    std::iota(by, by + len, 0);
    std::sort(by, by + len, [&](int x, int y) {
      return nbr_ap_[static_cast<size_t>(f.at + x)] < nbr_ap_[static_cast<size_t>(f.at + y)];
    });
    strongest_ap_[r] = len > 0 ? nbr_ap_[static_cast<size_t>(f.at)] : kNoAp;
  }
  user_row_[static_cast<size_t>(n_new)] = n_links_new;
  user_session_.resize(static_cast<size_t>(n_new));
  user_pos_.resize(static_cast<size_t>(n_new));
  strongest_ap_.resize(static_cast<size_t>(n_new));
  user_row_.resize(static_cast<size_t>(n_new) + 1);
  nbr_ap_.resize(static_cast<size_t>(n_links_new));
  nbr_rate_.resize(static_cast<size_t>(n_links_new));
  nbr_by_ap_.resize(static_cast<size_t>(n_links_new));
  n_users_ = n_new;
  update_basic_rate();

  if (dirty_aps != nullptr) *dirty_aps = std::move(dirty);
  return static_cast<int>(fresh.size());
}

}  // namespace wmcast::wlan
