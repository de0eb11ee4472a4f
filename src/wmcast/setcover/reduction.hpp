// The paper's reduction (Theorems 1/3/5): a WLAN association instance becomes
// a grouped, weighted set system. For every AP a, session s, and useful
// transmission rate r, the candidate set is
//     { u : user u requests s and link_rate(a, u) >= r }
// with cost session_rate(s) / r, in group a.
//
// Only link-rate values that actually occur on (a, s) are enumerated: any
// other transmission rate is dominated by the next-higher occurring rate
// (same members, lower cost).
#pragma once

#include "wmcast/core/engine.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::setcover {

/// Builds the set system for `sc`.
/// multi_rate=false restricts every multicast to the scenario's basic rate
/// (802.11-standard broadcast), yielding one candidate set per (AP, session).
SetSystem build_set_system(const wlan::Scenario& sc, bool multi_rate = true);

/// Source adapter exposing a wlan::Scenario to the coverage engine: elements
/// are users, groups are APs. Engines built through it hold exactly the sets
/// of build_set_system, with ids in the same order, so the two build paths
/// are interchangeable — and update_groups(src, dirty_aps) re-projects only
/// the named APs when the scenario is replaced by a perturbed successor.
class ScenarioSource {
 public:
  explicit ScenarioSource(const wlan::Scenario& sc) : sc_(&sc) {}

  int n_elements() const { return sc_->n_users(); }
  int n_groups() const { return sc_->n_aps(); }
  int n_sessions() const { return sc_->n_sessions(); }
  double session_rate(int s) const { return sc_->session_rate(s); }
  int element_session(int e) const { return sc_->user_session(e); }
  bool element_active(int) const { return true; }
  double basic_rate() const { return sc_->basic_rate(); }

  /// The AP's CSR row with its link rates paired in.
  template <typename Fn>
  void for_each_link_of_group(int g, Fn&& fn) const {
    const auto users = sc_->users_of_ap(g);
    const double* rates = sc_->rates_of_ap(g);
    for (size_t i = 0; i < users.size(); ++i) fn(users[i], rates[i]);
  }

 private:
  const wlan::Scenario* sc_;
};

/// Builds a CoverageEngine directly from the scenario — the cached,
/// incrementally-updatable counterpart of build_set_system (no per-set
/// bitsets are materialized).
core::CoverageEngine build_engine(const wlan::Scenario& sc, bool multi_rate = true);

}  // namespace wmcast::setcover
