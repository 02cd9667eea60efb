// Lockstep batched execution of the target system: N injection runs,
// possibly of *different* test cases and fire ticks, simulated together --
// the structure-of-arrays counterpart of ArrestmentSystem.
//
// A batch is a sequence of segments, one per test case, each contributing
// one golden lane plus that test case's injection lanes. Every segment's
// golden lane re-simulates its golden run from the shared origin tick, and
// each injection lane tracks divergence online against *its own segment's*
// golden lane, so the batch produces final DivergenceReports without
// materialising a trace per run. Lanes whose injection fires after the
// origin tick simply evolve bit-identically to their golden lane until the
// fire scan triggers them (staggered activation needs no kernel masking).
// The batched module updates are exact by construction: integer modules
// are pure re-implementations, and the double-precision paths
// (BatchedEnvironment, calc_checkpoint_math) perform the scalar path's
// operation sequence per lane on a target whose double arithmetic is IEEE
// per-op (no FMA contraction), so lane values are bit-identical to a
// scalar run at every tick -- the property
// tests/fi/batch_equivalence_test.cpp enforces.
//
// Early exit: an injection lane retires from the batch when its report can
// no longer change --
//   * exhausted (the reachability rule): every signal in the forward
//     closure of the lane's injection target (arr/dataflow.hpp) has
//     recorded its first divergence. Signals outside the closure equal
//     their golden values at every tick, so they are never pending: a
//     lane's pending set and undiverged count are seeded from the closure
//     alone, and the screen skips a signal no lane of the batch can reach;
//   * converged: the lane's complete bus, module-internal and
//     bus-observable environment state equals the golden lane's, so all
//     its future samples equal the golden suffix;
//   * at rest: the lane and its golden lane are both at rest -- velocity
//     exactly 0 and no pulse for kStoppedGapMs -- and either none of the
//     lane's pending signals lies in the rest loop (arr/dataflow.hpp) or
//     its rest-loop state (brake pressure, V_REG integrator and the bus
//     values of ms_slot_nbr and the rest loop) equals the golden lane's.
//     Rest is absorbing: from then on the motion signals stay constant
//     and SetValue stays 0, so the rest loop is closed and deterministic,
//     the other signals evolve on their own, and a pending signal -- equal
//     to its golden value now -- stays equal. A lane waits one check
//     after the tick its injection fired in: a read-site injection lands
//     after DIST_S and before CALC, so its effect shows on the next tick.
// Retired lanes may still be touched by the branch-free module sweeps
// (their state is dead); the simulation stops once every injection lane
// retired or the horizon is reached.
//
// Lane states: a batch is built from nothing but lane states -- one per
// golden lane, one per injection lane, all at the tick the batch starts
// from. lane_state captures a scalar system (a golden-run checkpoint, or a
// fresh system at t=0), unfired_lane seats a planned injection on such a
// state, and store_lane/store_golden capture a lane of a batch that
// stopped. advance(until) simulates up to a tick and stops, with the
// still-live lanes' reports not yet final; their stored states -- from any
// number of batches that stopped at the same tick -- build a fresh, dense
// batch that continues exactly where they left off. Lanes never interact,
// so a lane's report is bit-identical whichever batches it travels through
// (batch_runner.hpp compacts its batches this way between fixed windows).
//
// Lane sets: a batch holds at most kMaxBatchLanes injection lanes, so
// every set of them -- live lanes, unfired lanes, the lanes still waiting
// on a signal -- is one 64-bit word, bit j for injection lane j.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arrestment/dataflow.hpp"
#include "arrestment/system.hpp"
#include "fi/batched_bus.hpp"
#include "fi/golden.hpp"

namespace propane::arr {

/// One injection lane: the planned injection plus its RNG stream seed
/// (the same (campaign seed, flat index)-derived seed the scalar path
/// would use). `spec` is borrowed and must outlive the batch.
struct BatchLaneSpec {
  const fi::InjectionSpec* spec = nullptr;
  std::uint64_t rng_seed = 0;
};

/// Convergence is checked once per this many ticks: often enough that a
/// transient error retires its lane quickly, rarely enough that the check
/// (a full state compare per candidate lane) stays off the hot path.
inline constexpr std::uint64_t kConvergenceCheckPeriod = 16;

/// Signals on the arrestment bus (kAllSignals); lane states hold one
/// value per signal inline, so a transplanted lane allocates nothing.
inline constexpr std::size_t kLaneSignals = kAllSignals.size();

/// Injection lanes per batch at most: one bit each in a 64-bit lane set.
inline constexpr std::size_t kMaxBatchLanes = 64;

/// The lane set {0, ..., n - 1}, for n <= kMaxBatchLanes.
constexpr std::uint64_t first_lanes(std::size_t n) {
  return n == 0 ? 0 : ~std::uint64_t{0} >> (kMaxBatchLanes - n);
}

/// The whole state of one bus lane at a tick: what a lane carries when it
/// is transplanted from one batch into another.
struct LaneState {
  std::array<std::uint16_t, kLaneSignals> bus{};  // bus order
  BatchedEnvironment::LaneState env;
  DistSModule::Snapshot dist_s;
  std::int32_t v_reg_integrator = 0;
  CalcModule::Snapshot calc;
};

/// One report entry as a batch keeps it: 8 bytes where fi::Divergence
/// takes 24, which keeps batches and lanes in transit small.
struct LaneDivergence {
  std::uint32_t first_ms_plus_one = 0;  // 0: not diverged
  std::uint16_t golden_value = 0;
  std::uint16_t observed_value = 0;

  fi::Divergence unpack() const {
    fi::Divergence d;
    d.diverged = first_ms_plus_one != 0;
    d.first_ms = d.diverged ? first_ms_plus_one - 1u : 0;
    d.golden_value = golden_value;
    d.observed_value = observed_value;
    return d;
  }
};

/// An injection lane in transit: its machine state plus its divergence
/// tracking. Its undiverged count is the size of `pending`.
struct InjectionLaneState {
  LaneState lane;
  BatchLaneSpec spec;
  /// The report so far, one entry per signal.
  std::array<LaneDivergence, kLaneSignals> report{};
  /// Reachable signals whose first divergence is still open.
  SignalSet pending = 0;
  /// The signal the last convergence check found unequal.
  std::uint16_t conv_hint = 0;
  bool fired = false;
};

/// `system`'s whole state at its current tick, as a lane carries it.
LaneState lane_state(const ArrestmentSystem& system);

/// An injection lane about to start from `origin`: nothing diverged, the
/// injection not fired, and pending exactly the signals its target can
/// reach (arr/dataflow.hpp) -- the others never diverge.
InjectionLaneState unfired_lane(const LaneState& origin,
                                const BatchLaneSpec& spec);

/// One test-case segment of a batch: the golden lane of its test case and
/// the injection lanes that compare against it, all at the tick the batch
/// starts from. Borrowed for the constructor call only.
struct ResumedSegment {
  const LaneState* golden = nullptr;
  std::span<const InjectionLaneState> lanes;
};

class BatchedArrestmentSystem {
 public:
  /// Seats `segments` at simulated time `now` (ms-aligned, the tick every
  /// lane state was taken at) and simulates on to `duration`. Lanes are
  /// laid out segment-contiguously ([golden 0, lanes 0..., golden 1,
  /// lanes 1...]); injection lane indices (reports, store_lane,
  /// take_lane_trace) count lanes across segments in order. The segments
  /// carry between one and kMaxBatchLanes injection lanes in all.
  BatchedArrestmentSystem(std::span<const ResumedSegment> segments,
                          sim::SimTime now, sim::SimTime duration);
  ~BatchedArrestmentSystem();

  BatchedArrestmentSystem(const BatchedArrestmentSystem&) = delete;
  BatchedArrestmentSystem& operator=(const BatchedArrestmentSystem&) = delete;

  /// Test/diagnostic mode: materialise a full per-lane trace (golden lane
  /// included) and disable early exit so every lane covers the horizon.
  /// `prefix` seeds each trace with the rows before now() (pass the test
  /// case's golden trace -- rows past now() are ignored -- or nullptr when
  /// the batch starts at t=0). Must be called before run().
  /// Single-segment batches only; the span overload below takes one prefix
  /// per segment.
  void enable_recording(const fi::TraceSet* prefix);
  void enable_recording(std::span<const fi::TraceSet* const> prefixes);

  /// Simulates to the horizon (or until every injection lane retired) and
  /// returns one final DivergenceReport per injection lane, in spec order.
  std::vector<fi::DivergenceReport> run();

  /// Simulates until simulated time reaches `until` (clamped to the
  /// horizon), or until every injection lane retired. Not available in
  /// recording mode (no lane retires there).
  void advance(sim::SimTime until);

  /// Simulated time: the start of the next tick to run.
  sim::SimTime now() const { return now_; }
  std::size_t injection_lane_count() const { return specs_.size(); }
  /// True while injection lane `i`'s report can still change: it has not
  /// retired and the horizon is not reached. Its report is final otherwise.
  bool lane_live(std::size_t i) const {
    return ((active_ >> i) & 1u) != 0 && now_ < duration_;
  }
  /// Injection lane `i`'s report as it stands (final once !lane_live(i)).
  fi::DivergenceReport report(std::size_t i) const;

  /// Lane transplant: the whole state of injection lane `i` (spec order),
  /// or of a segment's golden lane, at the current tick.
  InjectionLaneState store_lane(std::size_t i) const;
  LaneState store_golden(std::size_t segment) const;

  // Post-run observability.
  std::size_t lanes_retired_converged() const { return converged_; }
  std::size_t lanes_retired_exhausted() const { return exhausted_; }
  std::size_t lanes_retired_at_rest() const { return at_rest_; }
  /// Lane-milliseconds not simulated thanks to early exit.
  std::uint64_t saved_lane_ms() const { return saved_lane_ms_; }
  /// Ticks simulated (one per simulated millisecond); kernel work derives
  /// from this -- every tick sweeps all lanes once through the LUT gather
  /// and the four exact-divisor ops per lane.
  std::uint64_t ticks_simulated() const { return ticks_; }
  /// Per retirement: ticks from the lane's fire tick to its retirement, in
  /// retirement order.
  const std::vector<std::uint64_t>& retirement_ticks() const {
    return retirement_ticks_;
  }

  /// Recorded traces (recording mode, after run()): injection lane `i` in
  /// cross-segment spec order, or a segment's golden lane (segment 0 by
  /// default).
  fi::TraceSet take_lane_trace(std::size_t i);
  fi::TraceSet take_golden_trace(std::size_t segment = 0);

 private:
  /// One test-case segment's lane geometry: its golden bus lane, the bus
  /// lane of its first injection lane (golden_lane + 1), the cross-segment
  /// spec index of that lane (= its bit position in the pending masks) and
  /// the number of injection lanes.
  struct SegmentInfo {
    std::size_t golden_lane = 0;
    std::size_t first_lane = 0;
    std::size_t first_bit = 0;
    std::size_t count = 0;
  };

  /// Opens a segment whose golden lane is the next bus lane.
  void open_segment();
  /// Seats an injection lane of the current segment at the next bus lane.
  void seat_lane(const InjectionLaneState& lane);
  void load_machine(std::size_t lane, const LaneState& state);
  LaneState store_machine(std::size_t lane) const;

  /// One millisecond of every lane: injections, environment, modules,
  /// observation.
  void tick(sim::SimTime now);
  void fire_injections(sim::SimTime now, fi::InjectionPhase phase);
  void check_divergence(sim::SimTime now);
  void note_divergences(std::size_t sig, std::uint64_t newly,
                        std::uint64_t ms);
  void check_convergence(sim::SimTime now);
  /// The signals injection lane `j` still waits on.
  SignalSet pending_signals(std::size_t j) const;
  /// Bus lane `lane` is at rest: velocity exactly 0, no pulse for
  /// kStoppedGapMs.
  bool at_rest(std::size_t lane) const;
  /// The rest rule for injection lane `j` (see the header comment).
  bool final_at_rest(std::size_t j, std::uint64_t now_ms) const;
  enum class Retirement : std::uint8_t { kExhausted, kConverged, kAtRest };
  void retire(std::size_t lane, std::uint64_t now_ms, Retirement reason);

  void record_rows();

  std::size_t lanes_;            // total specs + one golden per segment
  BusMap map_;
  sim::SimTime duration_;
  std::uint64_t duration_ms_;

  fi::BatchedSignalBus bus_;
  sim::SimTime now_ = 0;
  BatchedEnvironment env_;
  BatchedClock clock_;
  BatchedDistS dist_s_;
  BatchedPresS pres_s_;
  BatchedPresA pres_a_;
  BatchedVReg v_reg_;
  BatchedCalc calc_;

  // Injection lanes in cross-segment spec order. Spec j occupies bus lane
  // spec_lane_[j] and compares against golden lane spec_golden_[j] (its
  // segment's golden); in the single-segment layout these collapse to
  // j + 1 and 0.
  std::vector<BatchLaneSpec> specs_;
  std::vector<SegmentInfo> segments_;
  std::vector<std::uint32_t> spec_lane_;
  std::vector<std::uint32_t> spec_golden_;
  std::uint64_t unfired_ = 0;                   // injections still to fire

  // Online divergence tracking.
  // Per injection lane, per signal (lane-major): the report entries.
  std::vector<LaneDivergence> divergences_;
  // Per signal: the lanes not yet diverged on it.
  std::array<std::uint64_t, kLaneSignals> pending_{};
  std::vector<std::uint32_t> undiverged_;       // per lane: pending signals
  std::vector<std::uint16_t> conv_hint_;        // per lane: last unequal signal
  std::uint64_t active_ = 0;                    // live injection lanes
  std::uint64_t ticks_ = 0;

  // Early-exit accounting.
  std::size_t converged_ = 0;
  std::size_t exhausted_ = 0;
  std::size_t at_rest_ = 0;
  std::uint64_t saved_lane_ms_ = 0;
  std::vector<std::uint64_t> retirement_ticks_;

  // Golden-gather screen tables (valid when lanes_ <= 64, goldens
  // included): golden_idx_[l] is the bus lane whose value lane l compares
  // against (a golden lane maps to itself); spec_lane_mask_ has one bit
  // per injection lane. A vector permute through golden_idx_ reduces the
  // whole screen to one row compare per signal, independent of how many
  // test-case segments the batch packs (check_divergence).
  std::array<std::uint16_t, 64> golden_idx_{};
  std::uint64_t spec_lane_mask_ = 0;

  // Recording mode (tests): per-bus-lane traces, retirement disabled.
  bool recording_ = false;
  std::vector<fi::TraceSet> traces_;
  std::vector<std::uint16_t> row_scratch_;
};

}  // namespace propane::arr
