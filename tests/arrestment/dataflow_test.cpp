// The dataflow table (arr/dataflow.hpp) against the code and against the
// paper model: every written signal depends on exactly its declared reads
// -- checked by perturbing the scalar writers -- and the table differs
// from the model's module wiring only as listed here, so a new difference
// fails loudly.
#include "arrestment/dataflow.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arrestment/calc.hpp"
#include "arrestment/clock_module.hpp"
#include "arrestment/constants.hpp"
#include "arrestment/dist_s.hpp"
#include "arrestment/environment.hpp"
#include "arrestment/model.hpp"
#include "arrestment/pres_a.hpp"
#include "arrestment/pres_s.hpp"
#include "arrestment/signals.hpp"
#include "arrestment/system.hpp"
#include "arrestment/testcase.hpp"
#include "arrestment/v_reg.hpp"

namespace propane::arr {
namespace {

using Names = std::set<std::string>;

fi::BusSignalId id_of(std::string_view name) {
  for (std::size_t s = 0; s < kAllSignals.size(); ++s) {
    if (kAllSignals[s] == name) return static_cast<fi::BusSignalId>(s);
  }
  ADD_FAILURE() << "unknown signal " << name;
  return 0;
}

SignalSet set_of(std::initializer_list<std::string_view> names) {
  SignalSet set = 0;
  for (const std::string_view name : names) {
    set |= SignalSet{1} << id_of(name);
  }
  return set;
}

TEST(Dataflow, TableCoversEveryBusSignalInBusOrder) {
  const std::vector<SignalDataflow>& table = dataflow_table();
  ASSERT_EQ(table.size(), kAllSignals.size());
  fi::SignalBus bus;
  build_bus(bus);
  for (std::size_t s = 0; s < table.size(); ++s) {
    EXPECT_EQ(table[s].signal, kAllSignals[s]);
    EXPECT_EQ(bus.find(table[s].signal), static_cast<fi::BusSignalId>(s));
    for (const std::string_view read : table[s].reads) {
      EXPECT_TRUE(bus.find(read).has_value()) << read;
    }
  }
}

// The module-level union of the table's reads, next to the paper model's
// module inputs. Every difference is listed; the paper model omits state
// the code keeps on the bus, which is right for the analysis and wrong for
// a soundness argument.
TEST(Dataflow, DiffersFromThePaperModelExactlyAsListed) {
  const core::SystemModel model = make_arrestment_model();
  std::map<std::string, Names> code_reads;
  std::map<std::string, Names> code_writes;
  for (const SignalDataflow& entry : dataflow_table()) {
    const std::string writer(entry.writer);
    code_writes[writer].insert(std::string(entry.signal));
    Names& reads = code_reads[writer];
    for (const std::string_view read : entry.reads) {
      reads.insert(std::string(read));
    }
  }

  const std::map<std::string, Names> extra_reads = {
      {"CLOCK", {"mscnt"}},                  // increments mscnt in place
      {"DIST_S", {"pulscnt"}},               // accumulates pulscnt
      {"PRES_S", {"ms_slot_nbr", "InValue"}},  // slot dispatch; holds InValue
      {"CALC", {"SetValue"}},                // caps its own set point
      {"V_REG", {}},
      {"PRES_A", {"TOC2"}},                  // slews its own command
  };
  ASSERT_EQ(model.module_count(), extra_reads.size());
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    const core::ModuleInfo& info = model.module(m);
    SCOPED_TRACE(info.name);
    const Names inputs(info.input_names.begin(), info.input_names.end());
    const Names outputs(info.output_names.begin(), info.output_names.end());
    Names expected = inputs;
    const auto extra = extra_reads.find(info.name);
    ASSERT_NE(extra, extra_reads.end());
    expected.insert(extra->second.begin(), extra->second.end());
    EXPECT_EQ(code_reads[info.name], expected);
    EXPECT_EQ(code_writes[info.name], outputs);
  }
  // The environment is no module of the model: it reads the valve
  // command, accumulates PACNT in place and holds the TIC1 latch.
  EXPECT_EQ(code_reads[std::string(kEnvironmentWriter)],
            (Names{"TOC2", "PACNT", "TIC1"}));
  EXPECT_EQ(code_writes[std::string(kEnvironmentWriter)],
            (Names{"PACNT", "TIC1", "TCNT", "ADC"}));
  EXPECT_EQ(code_reads.size(), extra_reads.size() + 1);
}

// The closed control loop reaches everything but the three signals only
// time and CLOCK drive: TCNT, mscnt and ms_slot_nbr are reachable from
// themselves alone.
TEST(Dataflow, ForwardClosuresLeaveOutTheFreeRunningCounters) {
  const SignalSet loop =
      set_of({"PACNT", "TIC1", "ADC", "pulscnt", "slow_speed", "stopped", "i",
              "SetValue", "InValue", "OutValue", "TOC2"});
  for (std::size_t s = 0; s < kAllSignals.size(); ++s) {
    const auto target = static_cast<fi::BusSignalId>(s);
    SCOPED_TRACE(std::string(kAllSignals[s]));
    EXPECT_EQ(forward_closure(target), loop | (SignalSet{1} << target));
  }
}

// The split behind the kernel's rest retirement (batch_system.hpp): the
// motion signals and the rest loop are disjoint, the rest loop reads only
// itself, SetValue (0 at rest) and the slot number PRES_S dispatches on,
// and every signal in neither set reads only itself.
TEST(Dataflow, RestLoopIsClosedButForSetValueAndTheSlotNumber) {
  EXPECT_EQ(kMotionSignals & kRestLoopSignals, 0u);
  const SignalSet loop_inputs =
      kRestLoopSignals | set_of({"SetValue", "ms_slot_nbr"});
  std::size_t free_running = 0;
  for (const SignalDataflow& entry : dataflow_table()) {
    SCOPED_TRACE(std::string(entry.signal));
    const SignalSet self = set_of({entry.signal});
    SignalSet reads = 0;
    for (const std::string_view read : entry.reads) reads |= set_of({read});
    if ((self & kRestLoopSignals) != 0) {
      EXPECT_EQ(reads & ~loop_inputs, 0u);
    } else if ((self & kMotionSignals) == 0) {
      EXPECT_EQ(reads & ~self, 0u);
      ++free_running;
    }
  }
  EXPECT_EQ(free_running, 3u);  // TCNT, mscnt, ms_slot_nbr
}

/// A writer of bus signals, runnable on its own: fresh state per run.
struct Writer {
  std::string_view name;
  std::function<std::function<void(fi::SignalBus&, sim::SimTime)>()> make;
};

std::vector<Writer> writers(const TestCase& test_case) {
  const BusMap& map = arrestment_bus_map();
  return {
      {kEnvironmentWriter,
       [&test_case, map] {
         auto env = std::make_shared<Environment>(test_case, map);
         return [env](fi::SignalBus& bus, sim::SimTime now) {
           env->step(bus, now);
         };
       }},
      {"CLOCK",
       [map] {
         auto clock = std::make_shared<ClockModule>(map);
         return [clock](fi::SignalBus& bus, sim::SimTime) {
           clock->step(bus);
         };
       }},
      {"DIST_S",
       [map] {
         auto dist_s = std::make_shared<DistSModule>(map);
         return [dist_s](fi::SignalBus& bus, sim::SimTime) {
           dist_s->step(bus);
         };
       }},
      // ArrestmentSystem::tick's dispatch: PRES_S runs in its slot only.
      {"PRES_S",
       [map] {
         auto pres_s = std::make_shared<PresSModule>(map);
         return [pres_s, map](fi::SignalBus& bus, sim::SimTime) {
           if (bus.read(map.ms_slot_nbr) == kPresSSlot) pres_s->step(bus);
         };
       }},
      {"CALC",
       [map] {
         auto calc = std::make_shared<CalcModule>(map);
         return [calc](fi::SignalBus& bus, sim::SimTime) {
           calc->step(bus);
         };
       }},
      {"V_REG",
       [map] {
         auto v_reg = std::make_shared<VRegModule>(map);
         return [v_reg](fi::SignalBus& bus, sim::SimTime) {
           v_reg->step(bus);
         };
       }},
      {"PRES_A",
       [map] {
         auto pres_a = std::make_shared<PresAModule>(map);
         return [pres_a](fi::SignalBus& bus, sim::SimTime) {
           pres_a->step(bus);
         };
       }},
  };
}

/// One perturbation of the bus a writer sees: `signal` XOR `mask` at tick
/// `from_ms`, and at every later tick too when `persistent`.
struct Perturbation {
  fi::BusSignalId signal = 0;
  std::uint16_t mask = 0;
  std::uint64_t from_ms = 0;
  bool persistent = false;
};

/// Runs `writer` alone over the golden run's bus stream: each tick, every
/// signal it does not write is loaded from the golden row, the perturbation
/// (if any) is applied, and the writer steps. Returns the rows after each
/// step.
std::vector<std::vector<std::uint16_t>> drive(
    const Writer& writer, SignalSet written, const fi::TraceSet& golden,
    const Perturbation* perturbation) {
  fi::SignalBus bus;
  build_bus(bus);
  const auto step = writer.make();
  std::vector<std::vector<std::uint16_t>> rows;
  rows.reserve(golden.sample_count());
  for (std::size_t t = 0; t < golden.sample_count(); ++t) {
    for (std::size_t s = 0; s < golden.signal_count(); ++s) {
      if (((written >> s) & 1u) == 0) {
        bus.write(static_cast<fi::BusSignalId>(s),
                  golden.value(t, static_cast<fi::BusSignalId>(s)));
      }
    }
    if (perturbation != nullptr &&
        (t == perturbation->from_ms ||
         (perturbation->persistent && t > perturbation->from_ms))) {
      bus.write(perturbation->signal,
                static_cast<std::uint16_t>(bus.read(perturbation->signal) ^
                                           perturbation->mask));
    }
    step(bus, static_cast<sim::SimTime>(t) * sim::kMillisecond);
    const std::span<const std::uint16_t> values = bus.values();
    rows.emplace_back(values.begin(), values.end());
  }
  return rows;
}

// Flipping a bus value outside a written signal's declared reads never
// changes that signal over a run, and every declared read does change it
// under some flip: the table is exactly what the scalar code computes.
TEST(Dataflow, ScalarWritersReadExactlyTheirDeclaredReads) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  const fi::TraceSet golden = run_arrestment(test_case).trace;
  ASSERT_EQ(golden.signal_count(), kAllSignals.size());

  // Early, mid-arrestment, and at rest (no pulses: only then does a PACNT
  // glitch reach the pulse-gap flags).
  std::vector<Perturbation> shapes;
  for (const std::uint64_t from_ms : {5u, 1200u, 6000u, 14000u}) {
    for (const std::uint16_t mask :
         {std::uint16_t{0x0001}, std::uint16_t{0x8000}}) {
      shapes.push_back({0, mask, from_ms, false});
    }
    shapes.push_back({0, 0x0004, from_ms, true});
  }

  for (const Writer& writer : writers(test_case)) {
    SCOPED_TRACE(std::string(writer.name));
    std::vector<const SignalDataflow*> entries;
    SignalSet written = 0;
    for (const SignalDataflow& entry : dataflow_table()) {
      if (entry.writer != writer.name) continue;
      entries.push_back(&entry);
      written |= SignalSet{1} << id_of(entry.signal);
    }
    ASSERT_FALSE(entries.empty());
    const auto baseline = drive(writer, written, golden, nullptr);

    for (std::size_t x = 0; x < kAllSignals.size(); ++x) {
      SCOPED_TRACE("flipped " + std::string(kAllSignals[x]));
      std::vector<bool> changed(entries.size(), false);
      for (Perturbation shape : shapes) {
        shape.signal = static_cast<fi::BusSignalId>(x);
        const auto rows = drive(writer, written, golden, &shape);
        for (std::size_t e = 0; e < entries.size(); ++e) {
          const fi::BusSignalId out = id_of(entries[e]->signal);
          for (std::size_t t = 0; t < rows.size() && !changed[e]; ++t) {
            changed[e] = rows[t][out] != baseline[t][out];
          }
        }
      }
      for (std::size_t e = 0; e < entries.size(); ++e) {
        const SignalSet reads = [&] {
          SignalSet set = 0;
          for (const std::string_view r : entries[e]->reads) {
            set |= SignalSet{1} << id_of(r);
          }
          return set;
        }();
        const bool declared = ((reads >> x) & 1u) != 0;
        EXPECT_EQ(changed[e], declared)
            << std::string(entries[e]->signal)
            << (declared ? " ignores a declared read"
                         : " depends on an undeclared read");
      }
    }
  }
}

}  // namespace
}  // namespace propane::arr
