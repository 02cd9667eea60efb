// The assembled target system: environment + six control modules on the
// signal bus, executed in simulated time with optional fault injection,
// tracing, and EDM/ERM instrumentation.
//
// Execution order within each millisecond tick (documented because the
// injection semantics depend on it):
//   1. fault injection fires (errors land in the shared variables)
//   2. environment steps: physics, then refreshes PACNT/TIC1/TCNT/ADC and
//      consumes TOC2 -- so injected errors in registers the environment
//      rewrites every tick (TCNT, ADC) are overwritten before the software
//      reads them, matching the near-zero permeabilities the paper reports
//      for those paths, while accumulating registers (PACNT) preserve them
//   3. ERM harness corrects signals (recovery wrappers guard consumers)
//   4. CLOCK ticks; the remaining modules dispatch on the *bus value* of
//      ms_slot_nbr (so a corrupted slot number genuinely shifts the
//      schedule): DIST_S and V_REG/PRES_A every slot, PRES_S in slot 2,
//      CALC afterwards as the background task
//   5. EDM monitor evaluates its assertions
//   6. the trace recorder samples every signal (millisecond resolution)
#pragma once

#include <cstdint>
#include <optional>

#include "arrestment/calc.hpp"
#include "arrestment/clock_module.hpp"
#include "arrestment/constants.hpp"
#include "arrestment/dist_s.hpp"
#include "arrestment/environment.hpp"
#include "arrestment/pres_a.hpp"
#include "arrestment/pres_s.hpp"
#include "arrestment/signals.hpp"
#include "arrestment/testcase.hpp"
#include "arrestment/v_reg.hpp"
#include "fi/campaign.hpp"
#include "fi/edm.hpp"
#include "fi/erm.hpp"
#include "fi/event_log.hpp"
#include "fi/injection.hpp"
#include "fi/trace.hpp"
#include "sim/simtime.hpp"

namespace propane::arr {

struct RunOptions {
  sim::SimTime duration = kRunDuration;
  std::optional<fi::InjectionSpec> injection;
  /// Additional simultaneous faults (extension beyond the paper's strict
  /// single-error campaigns; used by the multi-fault ablation).
  std::vector<fi::InjectionSpec> extra_injections;
  std::uint64_t rng_seed = 0;
  /// Optional instrumentation, owned by the caller; state must be fresh
  /// per run.
  fi::EdmMonitor* monitor = nullptr;
  fi::ErmHarness* erms = nullptr;
  /// Optional event trace (checkpoints, brake engagement, slow/stop
  /// flags) -- PROPANE's "pre-defined events".
  fi::EventLog* events = nullptr;
};

struct RunOutcome {
  fi::TraceSet trace;
  /// Aircraft at rest at the end of the run.
  bool arrested = false;
  /// Cable payout when the run ended [m].
  double stop_distance_m = 0.0;
  /// Largest deceleration over the run [m/s^2] (hook/airframe load proxy).
  double peak_decel = 0.0;
  /// Millisecond at which the aircraft came to rest (0 if it never did).
  std::uint64_t stop_ms = 0;
  /// The arrestment failed: overran the runway or exceeded the load limit.
  bool overrun = false;
};

/// Step-by-step driver for one run of the target system. Exposed (rather
/// than only run_arrestment) so tests can observe intermediate state.
class ArrestmentSystem {
 public:
  explicit ArrestmentSystem(const TestCase& test_case);

  ArrestmentSystem(const ArrestmentSystem&) = delete;
  ArrestmentSystem& operator=(const ArrestmentSystem&) = delete;

  /// Executes one millisecond tick.
  void tick(const RunOptions& options);

  const fi::SignalBus& bus() const { return bus_; }
  fi::SignalBus& bus() { return bus_; }
  const BusMap& map() const { return map_; }
  const Environment& environment() const { return env_; }
  sim::SimTime now() const { return now_; }
  std::uint64_t current_ms() const { return sim::to_milliseconds(now_); }

  // Module-internal state, read-only: lane_state (batch_system.hpp)
  // captures a system as a batch lane from these.
  const DistSModule& dist_s() const { return dist_s_; }
  const CalcModule& calc() const { return calc_; }
  const VRegModule& v_reg() const { return v_reg_; }

  /// Test seam: state the bus does not carry (the cable payout, DIST_S's
  /// pulse baseline), for tests that perturb it.
  Environment& mutable_environment() { return env_; }
  DistSModule& mutable_dist_s() { return dist_s_; }

 private:
  fi::SignalBus bus_;
  BusMap map_;
  Environment env_;
  ClockModule clock_;
  DistSModule dist_s_;
  PresSModule pres_s_;
  CalcModule calc_;
  VRegModule v_reg_;
  PresAModule pres_a_;
  sim::SimTime now_ = 0;
  std::vector<fi::InjectionDriver> injectors_;
  bool injectors_initialised_ = false;
  // Previous bus values for event-edge detection.
  std::uint16_t prev_i_ = 0;
  std::uint16_t prev_slow_ = 0;
  std::uint16_t prev_stopped_ = 0;
  bool brake_engaged_ = false;

  void emit_events(fi::EventLog& events);
};

/// Runs one complete arrestment and returns the trace plus outcome
/// classification. Thread-safe: every call builds a fresh system.
RunOutcome run_arrestment(const TestCase& test_case,
                          const RunOptions& options = {});

/// The cold oracle for one campaign request: a fresh system run from t=0
/// to `duration`; returns its trace.
fi::TraceSet run_request(const TestCase& test_case,
                         const fi::RunRequest& request, sim::SimTime duration);

/// Adapter for fi::run_campaign: executes the requested run on the given
/// workload list with run_request -- the cold oracle every other engine is
/// checked against.
fi::RunFunction campaign_runner(std::vector<TestCase> test_cases,
                                sim::SimTime duration = kRunDuration);

}  // namespace propane::arr
