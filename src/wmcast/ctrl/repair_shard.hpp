// Sharded incremental repair (DESIGN.md §14): partitions one epoch's dirty
// region into AP-disjoint repair tasks and runs peel + greedy re-place +
// restricted polish on each task independently across a util::ThreadPool.
//
// Partition. Two APs interact during repair only when some user who may move
// hears both: a mover can be placed on any AP it hears, and an eviction from
// an over-budget AP turns that AP's members into movers. Union-find over the
// APs — uniting every mover's candidate set, and every over-budget AP with
// the candidate sets of all its members — therefore yields components whose
// repairs are independent: the peel and greedy phases of a component read and
// write only that component's AP loads and member lists. Each component with
// work (a mover or an over-budget AP) becomes one task; tasks are ordered by
// (grid cell of the lowest AP, lowest AP id), so when the partition
// degenerates into many tiny components, neighboring APs' tasks land in the
// same static chunk and walk cache-adjacent scenario rows.
//
// Determinism contract. The repaired association is a pure function of
// (scenario, carried association, movable rows, params) — bitwise identical
// at any thread count — because
//  * tasks touch disjoint APs and disjoint users (writes never overlap),
//  * each task's arithmetic runs against its own scoped wlan::LoadModel with
//    task-local totals (no cross-task floating-point state),
//  * the task list and every intra-task order (peel APs ascending, pending
//    sorted, movers in movable-row order with evictions appended in peel
//    order) is fixed before dispatch.
// The peel and greedy phases commit exactly what a single global pass would;
// the polish evaluates its accept/reject epsilons against the task-local
// running total instead of a network-wide one (a deliberate semantic choice —
// it is what makes the phase decomposable).
//
// The repair minimises total load (the kTotalLoad objective): a max-load key
// compares against the global maximum, which no AP-disjoint partition can
// evaluate locally.
#pragma once

#include <vector>

#include "wmcast/util/thread_pool.hpp"
#include "wmcast/wlan/load_model.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::ctrl {

/// Knobs mirrored from ControllerConfig for one repair call. The repair
/// always enforces the scenario's per-AP load budget.
struct RepairShardParams {
  bool multi_rate = true;
  /// Run the restricted local-search polish after peel + greedy.
  bool polish = true;
  double polish_min_gain = 0.02;
};

/// Per-lane scratch, reused across epochs (capacity persists; the model is
/// re-scoped per task in O(1) via begin_scope()). One per pool lane.
struct RepairLaneWorkspace {
  wlan::LoadModel model;
  std::vector<int> pending;  // users awaiting greedy placement
};

/// Per-call scratch for repair_sharded, reused across epochs. Between calls
/// every member list is empty and the movable mask is all zero, so a call
/// pays only for the APs and rows it reads.
struct RepairWorkspace {
  /// members[a] lists the rows with user_ap[r] == a, ascending. Built from
  /// the scenario's transpose only for the APs a task or the over-budget
  /// closure reads, and cleared again before the call returns.
  std::vector<std::vector<int>> members;
  std::vector<char> movable;               // per row
  std::vector<RepairLaneWorkspace> lanes;  // grown to pool.size()
  /// Out: the rows whose user_ap the last call may have changed — every
  /// task's movers, including the peel's evictions. Task order, no
  /// duplicates.
  std::vector<int> moved;
};

/// Per-call accounting, surfaced as counters.engine.parallel.repair_*
/// telemetry. All fields are thread-invariant (the task list is fixed before
/// dispatch).
struct RepairShardStats {
  int shards = 0;          // repair tasks dispatched
  int movers = 0;          // dirty users across all tasks
  double imbalance = 0.0;  // max task movers / mean task movers (1 = balanced)
};

/// Repairs `user_ap` in place. `movable_rows` are the dirty users whose
/// placement may change; users evicted by the budget peel join them.
/// `over_budget` must list, ascending, every AP whose load under the entry
/// `user_ap` exceeds the scenario budget (wlan::compute_loads' fold). On
/// return ws.moved lists every row the call may have re-placed.
void repair_sharded(const wlan::Scenario& sc, std::vector<int>& user_ap,
                    const std::vector<int>& movable_rows,
                    const std::vector<int>& over_budget,
                    const RepairShardParams& params, util::ThreadPool& pool,
                    RepairWorkspace& ws, RepairShardStats* stats = nullptr);

/// AP-connected component tasks over an arbitrary dirty-row set — the same
/// union-find partition repair_sharded builds internally, exposed for the
/// k-connectivity overlay repair (ctrl/controller.cpp), whose per-user
/// derivations read only the rows' heard APs. rows[t] lists each task's rows
/// in ascending order; order[] is the deterministic dispatch order (grid cell
/// of the component's lowest AP, then lowest AP id — a pure function of the
/// AP layout, so any consumer iterating tasks in this order is
/// thread-invariant). Rows with an empty heard-set are appended to
/// `isolated` instead of any task.
struct ComponentTasks {
  std::vector<std::vector<int>> rows;
  std::vector<int> order;
};
void build_component_tasks(const wlan::Scenario& sc,
                           const std::vector<int>& dirty_rows,
                           ComponentTasks& tasks, std::vector<int>& isolated);

}  // namespace wmcast::ctrl
