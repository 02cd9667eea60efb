// Injection specifications and plans (Section 7.3).
//
// One injection run (IR) applies exactly one error to one signal at one
// time instant: "For each injection run only one error was injected at one
// time, i.e., no multiple errors were injected."
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/error_model.hpp"
#include "fi/signal_bus.hpp"
#include "sim/simtime.hpp"

namespace propane::fi {

/// Where within the tick an injection fires. PROPANE instruments the
/// target with "high-level software traps" reached during execution; the
/// phase selects which trap:
///   kTickStart     -- before anything runs (a write-site trap: producers
///                     that refresh the variable every tick erase it
///                     before their consumer sees it)
///   kPreBackground -- after the slot tasks, before the background task
///                     (a read-site trap for background consumers: the
///                     corruption is guaranteed visible to them once)
enum class InjectionPhase : std::uint8_t { kTickStart, kPreBackground };

/// One planned injection: transform signal `target`'s stored value with
/// `model` when simulated time reaches `when`.
struct InjectionSpec {
  BusSignalId target = 0;
  sim::SimTime when = 0;
  ErrorModel model;
  InjectionPhase phase = InjectionPhase::kTickStart;
};

/// The first tick (in ms) in which an injection scheduled at `when` fires:
/// drivers fire at the start of the first tick whose timestamp has reached
/// `when`. Shared by the golden-run checkpoint capture (arrestment layer) and
/// the campaign batch planner, which groups runs by fire tick.
inline std::uint64_t injection_fire_ms(sim::SimTime when) {
  return (when + sim::kMillisecond - 1) / sim::kMillisecond;
}

/// Applies an InjectionSpec at the right moment. The system's per-
/// millisecond hook calls maybe_fire() once per tick *before* the sampled
/// modules run, so an error injected at time t is visible to consumers in
/// millisecond t.
class InjectionDriver {
 public:
  InjectionDriver(SignalBus& bus, InjectionSpec spec, Rng rng);

  /// Fires the injection if `now` has reached the trigger time and the
  /// injection has not fired yet. Returns true when it fired.
  bool maybe_fire(sim::SimTime now);

  bool fired() const { return fired_; }
  const InjectionSpec& spec() const { return spec_; }
  /// Values before/after the poke (valid once fired).
  std::uint16_t value_before() const { return before_; }
  std::uint16_t value_after() const { return after_; }

 private:
  SignalBus& bus_;
  InjectionSpec spec_;
  Rng rng_;
  bool fired_ = false;
  std::uint16_t before_ = 0;
  std::uint16_t after_ = 0;
};

/// Builds the paper's plan for one target signal: one injection per
/// (error model, time instant) pair -- e.g. 16 bit-flips x 10 instants.
std::vector<InjectionSpec> cross_product_plan(
    BusSignalId target, const std::vector<ErrorModel>& models,
    const std::vector<sim::SimTime>& instants);

/// The paper's ten injection instants: "at 10 different time instances
/// distributed in half-second intervals between 0.5 s and 5.0 s".
std::vector<sim::SimTime> paper_injection_instants();

}  // namespace propane::fi
