#include "arrestment/dataflow.hpp"

#include <array>

#include "arrestment/signals.hpp"
#include "common/contracts.hpp"

namespace propane::arr {
namespace {

std::size_t canonical_index(std::string_view name) {
  for (std::size_t s = 0; s < kAllSignals.size(); ++s) {
    if (kAllSignals[s] == name) return s;
  }
  PROPANE_REQUIRE_MSG(false, "not a canonical signal: " + std::string(name));
  return 0;
}

std::array<SignalSet, kAllSignals.size()> compute_closures() {
  // readers[r]: the signals whose writer reads r.
  std::array<SignalSet, kAllSignals.size()> readers{};
  for (const SignalDataflow& entry : dataflow_table()) {
    const std::size_t written = canonical_index(entry.signal);
    for (const std::string_view read : entry.reads) {
      readers[canonical_index(read)] |= SignalSet{1} << written;
    }
  }
  std::array<SignalSet, kAllSignals.size()> closures{};
  for (std::size_t target = 0; target < kAllSignals.size(); ++target) {
    SignalSet reached = SignalSet{1} << target;
    SignalSet frontier = reached;
    while (frontier != 0) {
      const auto s = static_cast<std::size_t>(__builtin_ctzll(frontier));
      frontier &= frontier - 1;
      const SignalSet fresh = readers[s] & ~reached;
      reached |= fresh;
      frontier |= fresh;
    }
    closures[target] = reached;
  }
  return closures;
}

}  // namespace

const std::vector<SignalDataflow>& dataflow_table() {
  static const std::vector<SignalDataflow> table = {
      // The environment: physics driven by the valve command, the pulse
      // counter accumulating in place, the capture latch holding until
      // the next pulse, the free-running timer a function of time alone.
      {kSigPacnt, kEnvironmentWriter, {kSigToc2, kSigPacnt}},
      {kSigTic1, kEnvironmentWriter, {kSigToc2, kSigTic1}},
      {kSigTcnt, kEnvironmentWriter, {}},
      {kSigAdc, kEnvironmentWriter, {kSigToc2}},
      // CLOCK: two independent in-place counters.
      {kSigMscnt, "CLOCK", {kSigMscnt}},
      {kSigMsSlotNbr, "CLOCK", {kSigMsSlotNbr}},
      // DIST_S: the pulse delta and the pulse-gap counter follow PACNT.
      {kSigPulscnt, "DIST_S", {kSigPacnt, kSigPulscnt}},
      {kSigSlowSpeed, "DIST_S", {kSigPacnt, kSigTic1, kSigTcnt}},
      {kSigStopped, "DIST_S", {kSigPacnt}},
      // CALC: the checkpoint index advances on pulscnt unless stopped; the
      // set point also uses the segment clock and caps its own value.
      {kSigI, "CALC", {kSigI, kSigPulscnt, kSigStopped}},
      {kSigSetValue,
       "CALC",
       {kSigI, kSigMscnt, kSigPulscnt, kSigSlowSpeed, kSigStopped,
        kSigSetValue}},
      // PRES_S runs in the slot ms_slot_nbr names and holds InValue
      // in between.
      {kSigInValue, "PRES_S", {kSigAdc, kSigMsSlotNbr, kSigInValue}},
      {kSigOutValue, "V_REG", {kSigSetValue, kSigInValue}},
      {kSigToc2, "PRES_A", {kSigOutValue, kSigToc2}},
  };
  return table;
}

SignalSet forward_closure(fi::BusSignalId target) {
  static const std::array<SignalSet, kAllSignals.size()> closures =
      compute_closures();
  PROPANE_REQUIRE_MSG(target < closures.size(),
                      "closure of a non-canonical signal");
  return closures[target];
}

}  // namespace propane::arr
