// Source adapter exposing the controller's network to the coverage engine in
// *slot* space: elements are controller slots (ids stable across epochs,
// unlike the compact scenario's rows), groups are APs. Slots not wanting
// service are inactive, so they appear in no candidate set but keep their
// element id for when they return. This is what lets the controller keep one
// engine alive across epochs and rebuild only the candidate sets of dirty
// APs.
//
// A group's links come from the compact projection's transpose: the rows
// `users_of_ap(g)` lists are exactly the slots that want service and hear
// AP g, with their link rates paired in, so building a group costs its
// member count, not the slot count (DESIGN.md §8).
#pragma once

#include <vector>

#include "wmcast/core/engine.hpp"
#include "wmcast/ctrl/state.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::ctrl {

class StateSource {
 public:
  /// `projection` must be st.to_scenario(&row_slot) — or equal to it, as the
  /// controller's patched projection is — built with st.rate_table().
  StateSource(const NetworkState& st, const wlan::Scenario& projection,
              const std::vector<int>& row_slot)
      : st_(&st), sc_(&projection), row_slot_(&row_slot) {}

  int n_elements() const { return st_->n_slots(); }
  int n_groups() const { return st_->n_aps(); }
  int n_sessions() const { return st_->n_sessions(); }
  double session_rate(int s) const { return st_->session_rate(s); }
  int element_session(int e) const { return st_->slot(e).session; }
  bool element_active(int e) const { return st_->slot(e).wants_service(); }
  /// The rate table's basic rate — not the projection's lowest occurring
  /// rate — prices the multi_rate = false sets.
  double basic_rate() const { return st_->rate_table().basic_rate(); }

  /// Calls fn(slot, rate) for every row hearing AP g, ascending by slot.
  template <typename Fn>
  void for_each_link_of_group(int g, Fn&& fn) const {
    const wlan::IndexSpan rows = sc_->users_of_ap(g);
    const double* rates = sc_->rates_of_ap(g);
    for (size_t i = 0; i < rows.size(); ++i) {
      fn((*row_slot_)[static_cast<size_t>(rows[i])], rates[i]);
    }
  }

 private:
  const NetworkState* st_;
  const wlan::Scenario* sc_;
  const std::vector<int>* row_slot_;
};

}  // namespace wmcast::ctrl
