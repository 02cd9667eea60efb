// Slot-based non-preemptive scheduler (Section 7.1).
//
// The target system "operates in seven 1-ms-slots. In each slot, one or more
// modules (except for CALC) are invoked"; CALC is "a background task [that]
// runs when other modules are dormant". This scheduler reproduces that
// execution model: a fixed cycle of 1-ms slots, each with a static task
// list, plus background tasks executed at the end of every slot (the slack
// left by the slot tasks -- in simulated time the slot tasks take zero
// time, so the background task runs once per slot).
//
// Two task shapes share each slot's registration-ordered list:
//   - scalar Tasks update one execution of the system, and
//   - BatchTasks update N lockstep executions ("lanes") per invocation,
//     receiving the LaneMask of lanes still live in the batch.
// A batched run registers BatchTasks for the converted modules and plain
// Tasks for anything still scalar; dispatch order is identical either way,
// which is what keeps the batched kernel bit-equivalent to the scalar one.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/lanes.hpp"
#include "sim/simtime.hpp"

namespace propane::sim {

/// A schedulable activity. Receives the slot start time.
using Task = std::function<void(SimTime now)>;

/// A batched activity: updates every lane of a lockstep batch in one call.
/// `live` names the lanes whose results are still observed; implementations
/// may update retired lanes too (their state is dead by definition), which
/// keeps the inner loops branch-free and vectorizable.
using BatchTask = std::function<void(SimTime now, const LaneMask& live)>;

class SlotScheduler {
 public:
  /// Creates a scheduler with `slot_count` one-millisecond slots per cycle.
  explicit SlotScheduler(std::size_t slot_count);

  std::size_t slot_count() const { return slots_.size(); }

  /// Registers a task to run in slot `slot` of every cycle. Tasks within a
  /// slot run in registration order (non-preemptive, deterministic).
  void add_slot_task(std::size_t slot, std::string name, Task task);

  /// Registers a task to run in every slot (period = 1 ms).
  void add_every_slot_task(std::string name, Task task);

  /// Registers a background task, run at the end of each slot after all
  /// slot tasks (the paper's CALC).
  void add_background_task(std::string name, Task task);

  /// Batch-task registration, mirroring the scalar forms. Batch and scalar
  /// tasks interleave in one registration-ordered list per slot.
  void add_slot_batch_task(std::size_t slot, std::string name,
                           BatchTask task);
  void add_every_slot_batch_task(std::string name, BatchTask task);
  void add_background_batch_task(std::string name, BatchTask task);

  /// Executes the tasks of the current slot (plus background), then
  /// advances time by one millisecond and moves to the next slot. Batch
  /// tasks receive an empty lane mask (no lanes live).
  void run_slot();

  /// As run_slot(), but batch tasks receive `live`. Scalar tasks in the
  /// same slot run unchanged (the fallback path for unconverted modules).
  void run_slot(const LaneMask& live);

  /// Runs `n` full cycles (n * slot_count slots).
  void run_cycles(std::size_t n);

  /// Runs slots until `now() >= deadline`.
  void run_until(SimTime deadline);

  /// Repositions the clock mid-cycle: the next run_slot() executes slot
  /// `slot` at time `now`. Used by warm-started batches, which resume from
  /// a checkpoint taken at an injection fire tick rather than from t=0.
  void seek(SimTime now, std::size_t slot);

  SimTime now() const { return now_; }
  std::size_t current_slot() const { return slot_; }
  std::uint64_t cycles_completed() const { return cycles_; }

  /// Names of the tasks bound to a slot (diagnostics / tests).
  std::vector<std::string> slot_task_names(std::size_t slot) const;

 private:
  struct NamedTask {
    std::string name;
    Task task;        // exactly one of task/batch is set
    BatchTask batch;
  };

  void dispatch(const LaneMask& live);
  void run_task(std::size_t index, const LaneMask& live) const;

  // Every task is stored once; slots and the background list hold indices
  // into tasks_, so a task registered for every slot costs one copy.
  std::vector<NamedTask> tasks_;
  std::vector<std::vector<std::size_t>> slots_;
  std::vector<std::size_t> background_;
  SimTime now_ = 0;
  std::size_t slot_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace propane::sim
