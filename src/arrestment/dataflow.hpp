// The dataflow of the target system's code, per written bus signal.
//
// The paper model (arr/model.cpp, Fig. 8) is the *analysis* abstraction:
// module-level input/output pairs. It deliberately hides state the code
// keeps on the bus -- CLOCK increments mscnt in place, DIST_S accumulates
// pulscnt, CALC caps its own SetValue, PRES_A slews its own TOC2, PRES_S
// runs only in the slot ms_slot_nbr names and holds InValue in between --
// and it has no environment. A soundness argument cannot hide them.
//
// This table can: one entry per bus signal, naming its writer (a module,
// or the environment for the hardware registers) and every bus signal the
// written value is computed from, module-internal state included (DIST_S's
// pulse-gap counter depends on PACNT only, so `stopped` reads PACNT and
// nothing else). tests/arrestment/dataflow_test.cpp checks every entry
// against the scalar modules by perturbation and lists how the table
// differs from the paper model.
//
// What it buys: a signal outside the forward closure of an injection
// target reads only signals outside that closure, so by induction over the
// ticks it equals its golden value for the whole run. A lane whose
// still-undiverged signals all lie outside its target's closure can
// therefore never change its report -- the batched kernel's reachability
// retirement (batch_system.hpp).
//
// Two named sets split the bus once the aircraft is at rest (velocity
// exactly 0 and no pulse for kStoppedGapMs): the motion signals stay
// constant from then on -- velocity 0 is absorbing, so no pulse arrives
// and CALC, seeing `stopped`, writes SetValue = 0 on every tick -- and the
// rest loop is what still moves: the brake pressure settling under
// SetValue = 0 (PRES_S also reads ms_slot_nbr). The three remaining
// signals (TCNT, mscnt, ms_slot_nbr) read only themselves or time. The
// batched kernel's rest retirement rests on this split.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "arrestment/signals.hpp"
#include "fi/signal_bus.hpp"

namespace propane::arr {

/// One written bus signal: who writes it and what its value is computed
/// from.
struct SignalDataflow {
  std::string_view signal;
  /// A module name of the paper model, or "environment".
  std::string_view writer;
  std::vector<std::string_view> reads;
};

/// Writer name of the hardware registers PACNT, TIC1, TCNT and ADC.
inline constexpr std::string_view kEnvironmentWriter = "environment";

/// One entry per canonical bus signal, in kAllSignals order.
const std::vector<SignalDataflow>& dataflow_table();

/// A set of canonical bus signals: bit `id` for bus id `id` (build_bus
/// assigns ids in kAllSignals order).
using SignalSet = std::uint64_t;

/// The set of the named canonical signals; a name that is not one does
/// not compile.
consteval SignalSet signal_set(std::initializer_list<std::string_view> names) {
  SignalSet set = 0;
  for (const std::string_view name : names) {
    std::size_t s = 0;
    while (s < kAllSignals.size() && kAllSignals[s] != name) ++s;
    if (s == kAllSignals.size()) {
      throw std::invalid_argument("not a canonical signal");
    }
    set |= SignalSet{1} << s;
  }
  return set;
}

/// Constant while the aircraft is at rest (SetValue at 0).
inline constexpr SignalSet kMotionSignals =
    signal_set({kSigPacnt, kSigTic1, kSigPulscnt, kSigSlowSpeed, kSigStopped,
                kSigI, kSigSetValue});

/// The pressure loop that still settles at rest: closed but for SetValue
/// (0 at rest) and PRES_S's slot number.
inline constexpr SignalSet kRestLoopSignals =
    signal_set({kSigAdc, kSigInValue, kSigOutValue, kSigToc2});

/// The signals an error in `target` can reach: the target itself plus
/// every signal that reads, directly or transitively, a signal of the set.
/// Everything outside it keeps its golden value at every tick.
SignalSet forward_closure(fi::BusSignalId target);

}  // namespace propane::arr
