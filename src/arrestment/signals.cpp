#include "arrestment/signals.hpp"

#include "common/contracts.hpp"
#include "arrestment/constants.hpp"

namespace propane::arr {

BusMap build_bus(fi::SignalBus& bus) {
  PROPANE_REQUIRE_MSG(bus.signal_count() == 0,
                      "build_bus expects an empty bus");
  BusMap map{};
  map.pacnt = bus.add_signal(std::string(kSigPacnt));
  map.tic1 = bus.add_signal(std::string(kSigTic1));
  map.tcnt = bus.add_signal(std::string(kSigTcnt));
  map.adc = bus.add_signal(std::string(kSigAdc));
  map.mscnt = bus.add_signal(std::string(kSigMscnt));
  // Initialised to the last slot so the first CLOCK tick lands on slot 0.
  map.ms_slot_nbr =
      bus.add_signal(std::string(kSigMsSlotNbr), kSlotCount - 1);
  map.pulscnt = bus.add_signal(std::string(kSigPulscnt));
  map.slow_speed = bus.add_signal(std::string(kSigSlowSpeed));
  map.stopped = bus.add_signal(std::string(kSigStopped));
  map.checkpoint_i = bus.add_signal(std::string(kSigI));
  map.set_value = bus.add_signal(std::string(kSigSetValue));
  map.in_value = bus.add_signal(std::string(kSigInValue));
  map.out_value = bus.add_signal(std::string(kSigOutValue));
  map.toc2 = bus.add_signal(std::string(kSigToc2));
  return map;
}

const BusMap& arrestment_bus_map() {
  static const BusMap map = [] {
    fi::SignalBus bus;
    return build_bus(bus);
  }();
  return map;
}

}  // namespace propane::arr
