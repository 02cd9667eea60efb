#include "sim/scheduler.hpp"

#include "common/contracts.hpp"

namespace propane::sim {

SlotScheduler::SlotScheduler(std::size_t slot_count) : slots_(slot_count) {
  PROPANE_REQUIRE_MSG(slot_count > 0, "need at least one slot");
}

void SlotScheduler::add_slot_task(std::size_t slot, std::string name,
                                  Task task) {
  PROPANE_REQUIRE(slot < slots_.size());
  PROPANE_REQUIRE(task != nullptr);
  slots_[slot].push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), std::move(task), nullptr});
}

void SlotScheduler::add_every_slot_task(std::string name, Task task) {
  PROPANE_REQUIRE(task != nullptr);
  for (std::vector<std::size_t>& slot : slots_) slot.push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), std::move(task), nullptr});
}

void SlotScheduler::add_background_task(std::string name, Task task) {
  PROPANE_REQUIRE(task != nullptr);
  background_.push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), std::move(task), nullptr});
}

void SlotScheduler::add_slot_batch_task(std::size_t slot, std::string name,
                                        BatchTask task) {
  PROPANE_REQUIRE(slot < slots_.size());
  PROPANE_REQUIRE(task != nullptr);
  slots_[slot].push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), nullptr, std::move(task)});
}

void SlotScheduler::add_every_slot_batch_task(std::string name,
                                              BatchTask task) {
  PROPANE_REQUIRE(task != nullptr);
  for (std::vector<std::size_t>& slot : slots_) slot.push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), nullptr, std::move(task)});
}

void SlotScheduler::add_background_batch_task(std::string name,
                                              BatchTask task) {
  PROPANE_REQUIRE(task != nullptr);
  background_.push_back(tasks_.size());
  tasks_.push_back(NamedTask{std::move(name), nullptr, std::move(task)});
}

void SlotScheduler::run_task(std::size_t index, const LaneMask& live) const {
  const NamedTask& t = tasks_[index];
  if (t.batch) {
    t.batch(now_, live);
  } else {
    t.task(now_);
  }
}

void SlotScheduler::dispatch(const LaneMask& live) {
  for (const std::size_t index : slots_[slot_]) run_task(index, live);
  for (const std::size_t index : background_) run_task(index, live);
  now_ += kMillisecond;
  ++slot_;
  if (slot_ == slots_.size()) {
    slot_ = 0;
    ++cycles_;
  }
}

void SlotScheduler::run_slot() {
  static const LaneMask kNoLanes;
  dispatch(kNoLanes);
}

void SlotScheduler::run_slot(const LaneMask& live) { dispatch(live); }

void SlotScheduler::run_cycles(std::size_t n) {
  const std::size_t total = n * slots_.size();
  for (std::size_t i = 0; i < total; ++i) run_slot();
}

void SlotScheduler::run_until(SimTime deadline) {
  while (now_ < deadline) run_slot();
}

void SlotScheduler::seek(SimTime now, std::size_t slot) {
  PROPANE_REQUIRE(slot < slots_.size());
  now_ = now;
  slot_ = slot;
}

std::vector<std::string> SlotScheduler::slot_task_names(
    std::size_t slot) const {
  PROPANE_REQUIRE(slot < slots_.size());
  std::vector<std::string> names;
  names.reserve(slots_[slot].size());
  for (const std::size_t index : slots_[slot]) {
    names.push_back(tasks_[index].name);
  }
  return names;
}

}  // namespace propane::sim
