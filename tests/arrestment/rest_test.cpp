// The facts behind the batched kernel's rest retirement (batch_system.hpp),
// checked on the cold ArrestmentSystem. A run is at rest at the end of a
// tick when its velocity is exactly 0 and DIST_S has seen no pulse for
// kStoppedGapMs; like the kernel, the check starts in the tick after the
// one the injection fired in. Over the paper's 25 test cases -- the golden
// run, and injected runs on every target at bits 0, 7 and 15, firing at
// tick start at 4,500 and 5,000 ms, while most aircraft still move, and
// at tick start and at the read-site trap at 13,000 ms, when all of them
// rest -- two things hold up to the horizon:
//   1. from the first tick at rest, the motion signals never change and
//      SetValue stays 0;
//   2. a twin of the run perturbed at that tick outside the rest loop
//      (PACNT moved together with DIST_S's pulse baseline, TIC1, pulscnt,
//      i, mscnt and the cable payout) produces the same rest-loop signals
//      as the run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arrestment/constants.hpp"
#include "arrestment/dataflow.hpp"
#include "arrestment/model.hpp"
#include "arrestment/signals.hpp"
#include "arrestment/system.hpp"
#include "arrestment/testcase.hpp"
#include "fi/error_model.hpp"
#include "fi/injection.hpp"

namespace propane::arr {
namespace {

bool at_rest(const ArrestmentSystem& system) {
  return system.environment().velocity_mps() == 0.0 &&
         system.dist_s().snapshot().no_pulse_ms >= kStoppedGapMs;
}

/// One run of the sweep; the golden run has no injection and fire tick 0.
struct SweepRun {
  std::string name;
  RunOptions options;
  std::uint64_t fire_ms = 0;
};

/// When the sweep's injections fire: at tick start while most aircraft
/// still move, and at both traps once every aircraft rests, where a
/// read-site flip lands after DIST_S has seen no pulse.
struct Fire {
  std::uint64_t ms;
  fi::InjectionPhase phase;
};
constexpr Fire kFires[] = {{4500, fi::InjectionPhase::kTickStart},
                           {5000, fi::InjectionPhase::kTickStart},
                           {13000, fi::InjectionPhase::kTickStart},
                           {13000, fi::InjectionPhase::kPreBackground}};

std::vector<SweepRun> sweep() {
  std::vector<SweepRun> runs(1);
  runs[0].name = "golden";
  for (const fi::BusSignalId target : injection_target_bus_ids()) {
    for (const unsigned bit : {0u, 7u, 15u}) {
      for (const Fire& fire : kFires) {
        SweepRun run;
        run.name = std::string(kAllSignals[target]) + " bit " +
                   std::to_string(bit) + " at " + std::to_string(fire.ms) +
                   (fire.phase == fi::InjectionPhase::kTickStart
                        ? " tick-start"
                        : " read-site");
        const auto when = static_cast<sim::SimTime>(fire.ms) * sim::kMillisecond;
        run.options.injection =
            fi::InjectionSpec{target, when, fi::bit_flip(bit), fire.phase};
        run.fire_ms = fi::injection_fire_ms(when);
        runs.push_back(std::move(run));
      }
    }
  }
  return runs;
}

/// Ticks `system` until the end of the first tick after `fire_ms` at which
/// it is at rest (true), or to the horizon (false).
bool tick_to_rest(ArrestmentSystem& system, const SweepRun& run) {
  while (system.now() < kRunDuration) {
    system.tick(run.options);
    if (system.current_ms() - 1 > run.fire_ms && at_rest(system)) {
      return true;
    }
  }
  return false;
}

std::string where(std::size_t test_case, const SweepRun& run) {
  return "test case " + std::to_string(test_case) + ", " + run.name;
}

/// Perturbs `system`, at rest, outside the rest loop: PACNT moves together
/// with DIST_S's pulse baseline, so DIST_S still sees no pulse.
void perturb_outside_the_rest_loop(ArrestmentSystem& system) {
  constexpr SignalSet kOutside =
      signal_set({kSigPacnt, kSigTic1, kSigPulscnt, kSigI, kSigMscnt});
  static_assert((kOutside & kRestLoopSignals) == 0);
  fi::SignalBus& bus = system.bus();
  for (SignalSet m = kOutside; m != 0; m &= m - 1) {
    const auto id = static_cast<fi::BusSignalId>(__builtin_ctzll(m));
    bus.write(id, static_cast<std::uint16_t>(bus.read(id) ^ 0x0A05));
  }
  DistSModule::Snapshot dist = system.dist_s().snapshot();
  dist.last_pacnt = bus.read(system.map().pacnt);
  system.mutable_dist_s().restore(dist);
  system.mutable_environment().set_position(
      system.environment().position_m() + 100.0);
}

/// Both facts over one sweep: each run rests next to a twin that is
/// perturbed at the first tick at rest, and both tick to the horizon.
TEST(RestFacts, MotionFreezesAndTheRestLoopIgnoresTheRestOfTheState) {
  const std::vector<TestCase> cases = paper_test_cases();
  const std::vector<SweepRun> runs = sweep();
  std::size_t rested = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const SweepRun& run : runs) {
      ArrestmentSystem system(cases[c]);
      ArrestmentSystem twin(cases[c]);
      const bool rests = tick_to_rest(system, run);
      if (run.name == "golden") {
        EXPECT_TRUE(rests) << where(c, run);
      }
      if (!rests) continue;
      ++rested;
      ASSERT_TRUE(tick_to_rest(twin, run)) << where(c, run);
      ASSERT_EQ(twin.now(), system.now());
      perturb_outside_the_rest_loop(twin);
      ASSERT_TRUE(at_rest(twin)) << where(c, run);

      const fi::SignalBus& bus = system.bus();
      const std::vector<std::uint16_t> rest(bus.values().begin(),
                                            bus.values().end());
      EXPECT_EQ(rest[system.map().set_value], 0) << where(c, run);
      bool held = true;
      while (held && system.now() < kRunDuration) {
        system.tick(run.options);
        twin.tick(run.options);
        const std::uint64_t ms = system.current_ms() - 1;
        for (SignalSet m = kMotionSignals; m != 0 && held; m &= m - 1) {
          const auto id = static_cast<fi::BusSignalId>(__builtin_ctzll(m));
          held = bus.read(id) == rest[id];
          EXPECT_TRUE(held) << where(c, run) << ": " << kAllSignals[id]
                            << " moved at " << ms << " ms";
        }
        for (SignalSet m = kRestLoopSignals; m != 0 && held; m &= m - 1) {
          const auto id = static_cast<fi::BusSignalId>(__builtin_ctzll(m));
          held = twin.bus().read(id) == bus.read(id);
          EXPECT_TRUE(held) << where(c, run) << ": the twin's "
                            << kAllSignals[id] << " differs at " << ms
                            << " ms";
        }
      }
    }
  }
  // Not vacuous: most runs, every golden run among them, come to rest.
  EXPECT_GT(rested, cases.size() * runs.size() / 2);
}

}  // namespace
}  // namespace propane::arr
