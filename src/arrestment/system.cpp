#include "arrestment/system.hpp"

#include "arrestment/constants.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace propane::arr {

ArrestmentSystem::ArrestmentSystem(const TestCase& test_case)
    : map_(build_bus(bus_)),
      env_(test_case, map_),
      clock_(map_),
      dist_s_(map_),
      pres_s_(map_),
      calc_(map_),
      v_reg_(map_),
      pres_a_(map_) {}

void ArrestmentSystem::tick(const RunOptions& options) {
  // 1. Fault injection. The paper's campaigns inject exactly one error
  // per run; extra_injections extends this for the multi-fault ablation.
  if (!injectors_initialised_) {
    Rng seeder(options.rng_seed);
    if (options.injection) {
      injectors_.emplace_back(bus_, *options.injection, seeder.fork(0));
    }
    for (std::size_t i = 0; i < options.extra_injections.size(); ++i) {
      injectors_.emplace_back(bus_, options.extra_injections[i],
                              seeder.fork(i + 1));
    }
    injectors_initialised_ = true;
  }
  for (auto& injector : injectors_) {
    if (injector.spec().phase == fi::InjectionPhase::kTickStart) {
      injector.maybe_fire(now_);
    }
  }

  // 2. Environment: physics + sensor registers.
  env_.step(bus_, now_);

  // 3. Recovery wrappers guard the consumers of their signals.
  if (options.erms != nullptr) {
    options.erms->step(bus_, sim::to_milliseconds(now_));
  }

  // 4. Control software. CLOCK always runs; everything else dispatches on
  // the *bus value* of ms_slot_nbr, so schedule-phase errors propagate.
  clock_.step(bus_);
  const std::uint16_t slot = bus_.read(map_.ms_slot_nbr);
  dist_s_.step(bus_);
  if (slot == kPresSSlot) pres_s_.step(bus_);
  // The actuator driver runs before the regulator: it transfers the
  // command computed in the previous tick (a one-tick actuation pipeline,
  // normal for slot-based schedules). Running it after V_REG would let the
  // regulator overwrite an injected OutValue error before the actuator
  // ever saw it, making the OutValue->TOC2 pair artificially opaque.
  pres_a_.step(bus_);
  v_reg_.step(bus_);
  // Read-site trap for the background task: fires after the slot tasks
  // refreshed their outputs, immediately before CALC consumes them.
  for (auto& injector : injectors_) {
    if (injector.spec().phase == fi::InjectionPhase::kPreBackground) {
      injector.maybe_fire(now_);
    }
  }
  calc_.step(bus_);  // background task

  // 5. Detection assertions observe the completed tick.
  if (options.monitor != nullptr) {
    options.monitor->step(bus_, sim::to_milliseconds(now_));
  }
  if (options.events != nullptr) emit_events(*options.events);

  now_ += sim::kMillisecond;
}

void ArrestmentSystem::emit_events(fi::EventLog& events) {
  const std::uint64_t ms = sim::to_milliseconds(now_);
  const std::uint16_t i = bus_.read(map_.checkpoint_i);
  if (i != prev_i_) {
    events.record(ms, "checkpoint-" + std::to_string(i));
    prev_i_ = i;
  }
  if (!brake_engaged_ && bus_.read(map_.toc2) > 0) {
    events.record(ms, "brake-engaged");
    brake_engaged_ = true;
  }
  const std::uint16_t slow = bus_.read(map_.slow_speed);
  if (slow != prev_slow_) {
    events.record(ms, slow != 0 ? "slow-speed-set" : "slow-speed-cleared");
    prev_slow_ = slow;
  }
  const std::uint16_t stopped = bus_.read(map_.stopped);
  if (stopped != prev_stopped_) {
    events.record(ms, stopped != 0 ? "stopped" : "stopped-cleared");
    prev_stopped_ = stopped;
  }
}

RunOutcome run_arrestment(const TestCase& test_case,
                          const RunOptions& options) {
  PROPANE_REQUIRE(options.duration >= sim::kMillisecond);
  ArrestmentSystem system(test_case);
  fi::TraceRecorder recorder(system.bus(),
                             sim::to_milliseconds(options.duration));

  RunOutcome outcome;
  while (system.now() < options.duration) {
    system.tick(options);
    recorder.sample();  // 6. millisecond-resolution trace
    if (outcome.stop_ms == 0 && system.environment().at_rest()) {
      outcome.stop_ms = system.current_ms();
    }
  }

  outcome.arrested = system.environment().at_rest();
  outcome.stop_distance_m = system.environment().position_m();
  outcome.peak_decel = system.environment().peak_decel();
  outcome.overrun = outcome.stop_distance_m > kRunwayLengthM ||
                    outcome.peak_decel > kMaxDecel * 1.5;
  outcome.trace = recorder.take();
  return outcome;
}

fi::TraceSet run_request(const TestCase& test_case,
                         const fi::RunRequest& request, sim::SimTime duration) {
  RunOptions options;
  options.duration = duration;
  options.injection = request.injection;
  options.rng_seed = request.rng_seed;
  return run_arrestment(test_case, options).trace;
}

fi::RunFunction campaign_runner(std::vector<TestCase> test_cases,
                                sim::SimTime duration) {
  PROPANE_REQUIRE(!test_cases.empty());
  return [cases = std::move(test_cases),
          duration](const fi::RunRequest& request) {
    PROPANE_REQUIRE(request.test_case < cases.size());
    return run_request(cases[request.test_case], request, duration);
  };
}

}  // namespace propane::arr
