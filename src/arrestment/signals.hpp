// Canonical signal names of the target system (Fig. 8) and the bus layout
// shared by the environment simulator, the control modules and the
// analysis-model binding.
#pragma once

#include <array>
#include <string_view>

#include "fi/signal_bus.hpp"

namespace propane::arr {

// System inputs (hardware registers written by the environment).
inline constexpr std::string_view kSigPacnt = "PACNT";
inline constexpr std::string_view kSigTic1 = "TIC1";
inline constexpr std::string_view kSigTcnt = "TCNT";
inline constexpr std::string_view kSigAdc = "ADC";
// Internal signals.
inline constexpr std::string_view kSigMscnt = "mscnt";
inline constexpr std::string_view kSigMsSlotNbr = "ms_slot_nbr";
inline constexpr std::string_view kSigPulscnt = "pulscnt";
inline constexpr std::string_view kSigSlowSpeed = "slow_speed";
inline constexpr std::string_view kSigStopped = "stopped";
inline constexpr std::string_view kSigI = "i";
inline constexpr std::string_view kSigSetValue = "SetValue";
inline constexpr std::string_view kSigInValue = "InValue";
inline constexpr std::string_view kSigOutValue = "OutValue";
// System output (actuator register read by the environment).
inline constexpr std::string_view kSigToc2 = "TOC2";

/// All signals in canonical bus order.
inline constexpr std::array<std::string_view, 14> kAllSignals = {
    kSigPacnt,   kSigTic1,      kSigTcnt,    kSigAdc,     kSigMscnt,
    kSigMsSlotNbr, kSigPulscnt, kSigSlowSpeed, kSigStopped, kSigI,
    kSigSetValue, kSigInValue,  kSigOutValue, kSigToc2};

/// Resolved bus ids for the canonical signals.
struct BusMap {
  fi::BusSignalId pacnt, tic1, tcnt, adc;
  fi::BusSignalId mscnt, ms_slot_nbr;
  fi::BusSignalId pulscnt, slow_speed, stopped;
  fi::BusSignalId checkpoint_i, set_value, in_value, out_value;
  fi::BusSignalId toc2;
};

/// Registers every canonical signal on an empty bus and returns the map.
BusMap build_bus(fi::SignalBus& bus);

/// The map build_bus returns (the same for every bus it builds).
const BusMap& arrestment_bus_map();

}  // namespace propane::arr
