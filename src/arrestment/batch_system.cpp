#include "arrestment/batch_system.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "arrestment/constants.hpp"
#include "common/contracts.hpp"
#include "common/exact_div.hpp"
#include "common/rng.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace propane::arr {
namespace {

/// Bit `l` of the result is set iff `row[l] != golden`, for `l` in
/// [0, n); n <= kMaxBatchLanes. Each batch segment screens its own lane
/// sub-row against its own golden value, so cross-test-case batches reuse
/// this single compare kernel unchanged -- per-lane golden bases reduce to
/// a per-segment base pointer plus broadcast golden. The divergence scan
/// intersects the result with the pending mask, so the per-lane
/// bookkeeping only runs for lanes that diverge on this very tick --
/// almost always none.
std::uint64_t diff_bits(const std::uint16_t* row, std::uint16_t golden,
                        std::size_t n) {
  std::uint64_t bits = 0;
  std::size_t l = 0;
#if defined(__AVX2__) && defined(__BMI2__)
  const __m256i g = _mm256_set1_epi16(static_cast<short>(golden));
  for (; l + 16 <= n; l += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + l));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, g)));
    // movemask yields two bits per 16-bit lane; compact to one.
    const std::uint64_t ne = _pext_u32(~eq, 0x55555555u);
    bits |= ne << l;
  }
#endif
  for (; l < n; ++l) {
    bits |= static_cast<std::uint64_t>(row[l] != golden) << l;
  }
  return bits;
}

/// What the rest loop carries from one tick to the next on the bus: its
/// own signals and the slot number PRES_S dispatches on.
constexpr SignalSet kRestLoopState =
    kRestLoopSignals | signal_set({kSigMsSlotNbr});

/// Bus lanes of a batch: one golden lane per segment plus its lanes.
std::size_t bus_lanes(std::span<const ResumedSegment> segments) {
  std::size_t lanes = segments.size();
  for (const ResumedSegment& segment : segments) {
    lanes += segment.lanes.size();
  }
  return lanes;
}

}  // namespace

LaneState lane_state(const ArrestmentSystem& system) {
  PROPANE_REQUIRE_MSG(system.bus().signal_count() == kLaneSignals,
                      "batches run the arrestment bus layout");
  LaneState state;
  std::copy_n(system.bus().values().begin(), kLaneSignals, state.bus.begin());
  const Environment& env = system.environment();
  const ExactDivisor div_mass(env.mass_kg());
  state.env = {div_mass.divisor(), div_mass.reciprocal(), env.velocity_mps(),
               env.position_m(), env.pressure_pa(), env.pulse_accumulator(),
               env.peak_decel()};
  state.dist_s = system.dist_s().snapshot();
  state.v_reg_integrator = system.v_reg().integrator();
  state.calc = system.calc().snapshot();
  return state;
}

InjectionLaneState unfired_lane(const LaneState& origin,
                                const BatchLaneSpec& spec) {
  PROPANE_REQUIRE(spec.spec != nullptr);
  PROPANE_REQUIRE_MSG(spec.spec->target < kLaneSignals,
                      "injection targets unknown signal");
  InjectionLaneState lane;
  lane.lane = origin;
  lane.spec = spec;
  lane.pending = forward_closure(spec.spec->target);
  return lane;
}

BatchedArrestmentSystem::BatchedArrestmentSystem(
    std::span<const ResumedSegment> segments, sim::SimTime now,
    sim::SimTime duration)
    : lanes_(bus_lanes(segments)),
      map_(arrestment_bus_map()),
      duration_(duration),
      duration_ms_(sim::to_milliseconds(duration)),
      bus_(kLaneSignals, lanes_),
      now_(now),
      env_(map_, lanes_),
      clock_(map_),
      dist_s_(map_, lanes_),
      pres_s_(map_),
      pres_a_(map_),
      v_reg_(map_, lanes_),
      calc_(map_, lanes_) {
  PROPANE_REQUIRE_MSG(duration_ms_ < std::uint64_t{0xFFFFFFFF},
                      "divergence ticks are kept in 32 bits");
  PROPANE_REQUIRE_MSG(now < duration, "batch origin must precede the horizon");
  PROPANE_REQUIRE_MSG(lanes_ > segments.size(),
                      "batch needs at least one injection");
  const std::size_t specs = lanes_ - segments.size();
  PROPANE_REQUIRE_MSG(specs <= kMaxBatchLanes,
                      "a batch holds at most 64 injection lanes");
  segments_.reserve(segments.size());
  specs_.reserve(specs);
  spec_lane_.reserve(specs);
  spec_golden_.reserve(specs);
  divergences_.reserve(specs * kLaneSignals);
  undiverged_.reserve(specs);
  conv_hint_.reserve(specs);
  retirement_ticks_.reserve(specs);
  for (const ResumedSegment& segment : segments) {
    PROPANE_REQUIRE(segment.golden != nullptr);
    open_segment();
    load_machine(segments_.back().golden_lane, *segment.golden);
    for (const InjectionLaneState& lane : segment.lanes) seat_lane(lane);
  }
  // Golden-gather tables for the vectorised screen (lanes_ <= 64; wider
  // batches screen per segment in check_divergence).
  if (lanes_ <= 64) {
    for (const SegmentInfo& seg : segments_) {
      golden_idx_[seg.golden_lane] =
          static_cast<std::uint16_t>(seg.golden_lane);
      for (std::size_t k = 0; k < seg.count; ++k) {
        golden_idx_[seg.first_lane + k] =
            static_cast<std::uint16_t>(seg.golden_lane);
        spec_lane_mask_ |= std::uint64_t{1} << (seg.first_lane + k);
      }
    }
  }
}

void BatchedArrestmentSystem::open_segment() {
  SegmentInfo info;
  info.golden_lane = segments_.empty() ? 0
                                       : segments_.back().first_lane +
                                             segments_.back().count;
  info.first_lane = info.golden_lane + 1;
  info.first_bit = specs_.size();
  segments_.push_back(info);
}

void BatchedArrestmentSystem::seat_lane(const InjectionLaneState& lane) {
  PROPANE_REQUIRE(lane.spec.spec != nullptr);
  PROPANE_REQUIRE(lane.spec.spec->model.apply != nullptr);
  SegmentInfo& segment = segments_.back();
  const std::size_t j = specs_.size();
  const std::size_t bus_lane = segment.first_lane + segment.count;
  load_machine(bus_lane, lane.lane);
  specs_.push_back(lane.spec);
  spec_lane_.push_back(static_cast<std::uint32_t>(bus_lane));
  spec_golden_.push_back(static_cast<std::uint32_t>(segment.golden_lane));
  ++segment.count;
  if (!lane.fired) unfired_ |= std::uint64_t{1} << j;
  divergences_.insert(divergences_.end(), lane.report.begin(),
                      lane.report.end());
  conv_hint_.push_back(lane.conv_hint);
  undiverged_.push_back(
      static_cast<std::uint32_t>(__builtin_popcountll(lane.pending)));
  // A lane seated with nothing left to diverge on is already final.
  if (lane.pending != 0) active_ |= std::uint64_t{1} << j;
  for (SignalSet sigs = lane.pending; sigs != 0; sigs &= sigs - 1) {
    pending_[static_cast<std::size_t>(__builtin_ctzll(sigs))] |=
        std::uint64_t{1} << j;
  }
}

void BatchedArrestmentSystem::load_machine(std::size_t lane,
                                           const LaneState& state) {
  bus_.load_lane(lane, state.bus);
  env_.load_lane(lane, state.env);
  dist_s_.load_lane(lane, state.dist_s);
  v_reg_.load_lane(lane, state.v_reg_integrator);
  calc_.load_lane(lane, state.calc);
}

LaneState BatchedArrestmentSystem::store_machine(std::size_t lane) const {
  LaneState state;
  bus_.extract_lane(lane, state.bus);
  state.env = env_.lane_state(lane);
  state.dist_s = dist_s_.lane_snapshot(lane);
  state.v_reg_integrator = v_reg_.lane_integrator(lane);
  state.calc = calc_.lane_snapshot(lane);
  return state;
}

LaneState BatchedArrestmentSystem::store_golden(std::size_t segment) const {
  PROPANE_REQUIRE(segment < segments_.size());
  return store_machine(segments_[segment].golden_lane);
}

InjectionLaneState BatchedArrestmentSystem::store_lane(std::size_t i) const {
  PROPANE_REQUIRE(i < specs_.size());
  InjectionLaneState state;
  state.lane = store_machine(spec_lane_[i]);
  state.spec = specs_[i];
  std::copy_n(
      divergences_.begin() + static_cast<std::ptrdiff_t>(i * kLaneSignals),
      kLaneSignals, state.report.begin());
  state.pending = pending_signals(i);
  state.conv_hint = conv_hint_[i];
  state.fired = ((unfired_ >> i) & 1u) == 0;
  return state;
}

// One tick is one 1-ms slot of the target system, its steps in
// ArrestmentSystem::tick's order. Steps that dispatch on the slot number
// (PRES_S) read each lane's *bus value* of ms_slot_nbr, so a corrupted
// slot number shifts that lane's schedule exactly as in the scalar system.
void BatchedArrestmentSystem::tick(sim::SimTime now) {
  fire_injections(now, fi::InjectionPhase::kTickStart);
  env_.step_lanes(bus_, now);
  clock_.step_lanes(bus_);
  dist_s_.step_lanes(bus_);
  pres_s_.step_lanes(bus_);
  pres_a_.step_lanes(bus_);
  v_reg_.step_lanes(bus_);
  fire_injections(now, fi::InjectionPhase::kPreBackground);
  calc_.step_lanes(bus_);  // the background task
  // Observation runs last, like the scalar recorder: the row for
  // millisecond t is the bus state after the whole tick at time t.
  if (recording_) record_rows();
  check_divergence(now);
  ++ticks_;
  if (!recording_ && active_ != 0 &&
      ticks_ % kConvergenceCheckPeriod == 0) {
    check_convergence(now);
  }
}

BatchedArrestmentSystem::~BatchedArrestmentSystem() = default;

void BatchedArrestmentSystem::enable_recording(const fi::TraceSet* prefix) {
  PROPANE_REQUIRE_MSG(segments_.size() == 1,
                      "multi-segment batches take one prefix per segment");
  const fi::TraceSet* prefixes[] = {prefix};
  enable_recording(std::span<const fi::TraceSet* const>(prefixes, 1));
}

void BatchedArrestmentSystem::enable_recording(
    std::span<const fi::TraceSet* const> prefixes) {
  PROPANE_REQUIRE_MSG(ticks_ == 0, "enable_recording must precede run()");
  PROPANE_REQUIRE_MSG(prefixes.size() == segments_.size(),
                      "one prefix per segment");
  const fi::SignalNameTable names = fi::intern_signal_names(
      std::vector<std::string>(kAllSignals.begin(), kAllSignals.end()));
  recording_ = true;
  traces_.reserve(lanes_);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const fi::TraceSet* prefix = prefixes[s];
    // Only the rows before the origin tick seed the traces: the prefix may
    // be exactly that long, or the test case's full golden trace.
    const std::size_t prefix_rows = sim::to_milliseconds(now_);
    if (prefix != nullptr) {
      PROPANE_REQUIRE_MSG(prefix->signal_count() == kLaneSignals,
                          "prefix signals must match the bus");
      PROPANE_REQUIRE(prefix->sample_count() >= prefix_rows);
    }
    // This segment's golden lane plus its injection lanes, in lane order
    // (segments are laid out lane-contiguously, so traces_ indexes by bus
    // lane).
    for (std::size_t l = 0; l <= segments_[s].count; ++l) {
      fi::TraceSet trace(names);
      trace.reserve(duration_ms_);
      if (prefix != nullptr) {
        trace.append_rows({prefix->data(), prefix_rows * kLaneSignals});
      }
      traces_.push_back(std::move(trace));
    }
  }
  row_scratch_.resize(kLaneSignals);
}

std::vector<fi::DivergenceReport> BatchedArrestmentSystem::run() {
  for (; now_ < duration_ && (recording_ || active_ != 0);
       now_ += sim::kMillisecond) {
    tick(now_);
  }
  // Lanes still live at the horizon simply keep their reports: signals
  // that never diverged stay {diverged=false}, same as compare_to_golden
  // on equal-length traces.
  std::vector<fi::DivergenceReport> reports;
  reports.reserve(specs_.size());
  for (std::size_t j = 0; j < specs_.size(); ++j) reports.push_back(report(j));
  return reports;
}

fi::DivergenceReport BatchedArrestmentSystem::report(std::size_t i) const {
  PROPANE_REQUIRE(i < specs_.size());
  const auto first = divergences_.begin() +
                     static_cast<std::ptrdiff_t>(i * kLaneSignals);
  fi::DivergenceReport report;
  report.per_signal.reserve(kLaneSignals);
  std::for_each(first, first + static_cast<std::ptrdiff_t>(kLaneSignals),
                [&](const LaneDivergence& d) {
                  report.per_signal.push_back(d.unpack());
                });
  return report;
}

void BatchedArrestmentSystem::advance(sim::SimTime until) {
  PROPANE_REQUIRE_MSG(!recording_, "recording batches run to the horizon");
  const sim::SimTime stop = std::min(until, duration_);
  for (; now_ < stop && active_ != 0; now_ += sim::kMillisecond) tick(now_);
}

fi::TraceSet BatchedArrestmentSystem::take_lane_trace(std::size_t i) {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  PROPANE_REQUIRE(i < specs_.size());
  return std::move(traces_[spec_lane_[i]]);
}

fi::TraceSet BatchedArrestmentSystem::take_golden_trace(std::size_t segment) {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  PROPANE_REQUIRE(segment < segments_.size());
  return std::move(traces_[segments_[segment].golden_lane]);
}

void BatchedArrestmentSystem::fire_injections(sim::SimTime now,
                                              fi::InjectionPhase phase) {
  for (std::uint64_t unfired = unfired_; unfired != 0;
       unfired &= unfired - 1) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(unfired));
    const fi::InjectionSpec& spec = *specs_[j].spec;
    if (spec.phase != phase || now < spec.when) continue;
    // Replicates InjectionDriver byte for byte: the run's RNG stream is
    // fork(0) of the seeded generator (the scalar path forks stream 0 for
    // the primary injection), and the error model transforms the stored
    // value in place. Staggered lanes (fire tick after the batch origin)
    // activate here too: until this scan fires them they evolve
    // bit-identically to their segment's golden lane.
    const std::size_t lane = spec_lane_[j];
    Rng seeder(specs_[j].rng_seed);
    Rng rng = seeder.fork(0);
    const std::uint16_t before = bus_.read(spec.target, lane);
    const std::uint16_t after = spec.model.apply(before, rng);
    bus_.poke(spec.target, lane, after);
    unfired_ &= ~(std::uint64_t{1} << j);
  }
}

void BatchedArrestmentSystem::check_divergence(sim::SimTime now) {
  // Screen phase: compute, for every signal, the lanes diverging from
  // their segment's golden lane on this very tick, intersected with the
  // lanes still waiting on it. The loop reads but never writes heap
  // state, so the compiler keeps it tight; on the overwhelmingly common
  // tick no lane diverges and the function is done. A signal no lane
  // still waits on -- every lane diverged on it, or none can reach it --
  // is done for the rest of the run: its compares are skipped entirely.
  std::uint64_t newly[kLaneSignals];
  std::uint64_t any = 0;
#if defined(__AVX512BW__) && defined(__BMI2__)
  // Golden-gather screen: one permute maps every bus lane to its segment's
  // golden value, one masked compare yields all divergence bits at once,
  // and a pext compacts the injection-lane bits into cross-segment spec
  // order (golden lanes compare equal to themselves and drop out) -- the
  // per-signal cost is independent of how many test cases the batch packs.
  if (lanes_ <= 64) [[likely]] {
    const __mmask32 m0 =
        lanes_ >= 32 ? ~__mmask32{0}
                     : static_cast<__mmask32>((1u << lanes_) - 1);
    const __mmask32 m1 =
        lanes_ <= 32
            ? __mmask32{0}
            : (lanes_ >= 64
                   ? ~__mmask32{0}
                   : static_cast<__mmask32>((1u << (lanes_ - 32)) - 1));
    const __m512i idx0 = _mm512_loadu_si512(golden_idx_.data());
    const __m512i idx1 = _mm512_loadu_si512(golden_idx_.data() + 32);
    for (std::size_t sig = 0; sig < kLaneSignals; ++sig) {
      const std::uint64_t pend = pending_[sig];
      if (pend == 0) {
        newly[sig] = 0;
        continue;
      }
      const std::span<const std::uint16_t> row =
          bus_.lane_values(static_cast<fi::BusSignalId>(sig));
      const __m512i r0 = _mm512_maskz_loadu_epi16(m0, row.data());
      const __m512i r1 = m1 != 0
                             ? _mm512_maskz_loadu_epi16(m1, row.data() + 32)
                             : _mm512_setzero_si512();
      const __m512i g0 = _mm512_permutex2var_epi16(r0, idx0, r1);
      std::uint64_t ne = _mm512_mask_cmpneq_epu16_mask(m0, r0, g0);
      if (m1 != 0) {
        const __m512i g1 = _mm512_permutex2var_epi16(r0, idx1, r1);
        ne |= static_cast<std::uint64_t>(
                  _mm512_mask_cmpneq_epu16_mask(m1, r1, g1))
              << 32;
      }
      newly[sig] = _pext_u64(ne, spec_lane_mask_) & pend;
      any |= newly[sig];
    }
  } else
#endif
  {
    // Per-segment screen: each segment's lane sub-row against its golden
    // value, shifted to the segment's bit range.
    for (std::size_t sig = 0; sig < kLaneSignals; ++sig) {
      const std::uint64_t pend = pending_[sig];
      if (pend == 0) {
        newly[sig] = 0;
        continue;
      }
      const std::span<const std::uint16_t> row =
          bus_.lane_values(static_cast<fi::BusSignalId>(sig));
      std::uint64_t bits = 0;
      for (const SegmentInfo& seg : segments_) {
        if (seg.count == 0) continue;
        bits |= diff_bits(row.data() + seg.first_lane,
                          row[seg.golden_lane], seg.count)
                << seg.first_bit;
      }
      newly[sig] = bits & pend;
      any |= newly[sig];
    }
  }
  if (any == 0) return;
  const std::uint64_t ms = sim::to_milliseconds(now);
  for (std::size_t sig = 0; sig < kLaneSignals; ++sig) {
    if (newly[sig] != 0) {
      pending_[sig] &= ~newly[sig];
      note_divergences(sig, newly[sig], ms);
    }
  }
}

void BatchedArrestmentSystem::note_divergences(std::size_t sig,
                                               std::uint64_t newly,
                                               std::uint64_t ms) {
  const std::span<const std::uint16_t> row =
      bus_.lane_values(static_cast<fi::BusSignalId>(sig));
  for (; newly != 0; newly &= newly - 1) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(newly));
    LaneDivergence& d = divergences_[j * kLaneSignals + sig];
    d.first_ms_plus_one = static_cast<std::uint32_t>(ms + 1);
    d.golden_value = row[spec_golden_[j]];
    d.observed_value = row[spec_lane_[j]];
    if (--undiverged_[j] == 0 && !recording_ && ((active_ >> j) & 1u) != 0) {
      retire(j, ms, Retirement::kExhausted);
    }
  }
}

SignalSet BatchedArrestmentSystem::pending_signals(std::size_t j) const {
  SignalSet pending = 0;
  for (std::size_t sig = 0; sig < kLaneSignals; ++sig) {
    pending |= ((pending_[sig] >> j) & 1u) << sig;
  }
  return pending;
}

bool BatchedArrestmentSystem::at_rest(std::size_t lane) const {
  return env_.lane_velocity(lane) == 0.0 &&
         dist_s_.lane_snapshot(lane).no_pulse_ms >= kStoppedGapMs;
}

bool BatchedArrestmentSystem::final_at_rest(std::size_t j,
                                            std::uint64_t ms) const {
  const std::size_t lane = spec_lane_[j];
  const std::size_t golden = spec_golden_[j];
  if (!at_rest(lane) || !at_rest(golden)) return false;
  // A lane fires in its injection's fire tick, or in the first tick of the
  // batch that seats it, which is never a check tick.
  if (fi::injection_fire_ms(specs_[j].spec->when) >= ms) return false;
  if ((pending_signals(j) & kRestLoopSignals) == 0) return true;
  // The rest loop's state: what PRES_S, V_REG, PRES_A and the brake read
  // next, with SetValue at 0 in both lanes.
  if (env_.lane_pressure(lane) != env_.lane_pressure(golden)) return false;
  if (!v_reg_.lane_equals(lane, golden)) return false;
  for (SignalSet state = kRestLoopState; state != 0; state &= state - 1) {
    const auto id = static_cast<fi::BusSignalId>(__builtin_ctzll(state));
    if (bus_.read(id, lane) != bus_.read(id, golden)) return false;
  }
  return true;
}

void BatchedArrestmentSystem::check_convergence(sim::SimTime now) {
  const std::uint64_t ms = sim::to_milliseconds(now);
  // Only a lane whose injection has fired may retire as converged or at
  // rest: before the fire, lane state trivially equals its golden lane's.
  for (std::uint64_t lanes = active_ & ~unfired_; lanes != 0;
       lanes &= lanes - 1) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(lanes));
    if (final_at_rest(j, ms)) {
      retire(j, ms, Retirement::kAtRest);
      continue;
    }
    const std::size_t lane = spec_lane_[j];
    const std::size_t golden = spec_golden_[j];
    // A lane carrying a persistent error keeps mismatching on the same
    // signal check after check; probing that signal first turns the
    // common no-convergence outcome into a single compare.
    const auto hinted = static_cast<fi::BusSignalId>(conv_hint_[j]);
    if (bus_.read(hinted, lane) != bus_.read(hinted, golden)) continue;
    std::size_t sig = 0;
    for (; sig < kLaneSignals; ++sig) {
      const auto id = static_cast<fi::BusSignalId>(sig);
      if (bus_.read(id, lane) != bus_.read(id, golden)) break;
    }
    if (sig < kLaneSignals) {
      conv_hint_[j] = static_cast<std::uint16_t>(sig);
      continue;
    }
    if (!dist_s_.lane_equals(lane, golden)) continue;
    if (!v_reg_.lane_equals(lane, golden)) continue;
    if (!calc_.lane_equals(lane, golden)) continue;
    if (!env_.lane_equals(lane, golden)) continue;
    // Complete state (bus + module-internal + bus-feeding environment)
    // equals the segment's golden lane: every future sample coincides, so
    // the report is final.
    retire(j, ms, Retirement::kConverged);
  }
}

void BatchedArrestmentSystem::retire(std::size_t lane, std::uint64_t now_ms,
                                     Retirement reason) {
  // The report is final: nothing is pending any more, so the screen skips
  // the lane.
  const std::uint64_t keep = ~(std::uint64_t{1} << lane);
  for (std::uint64_t& pend : pending_) pend &= keep;
  undiverged_[lane] = 0;
  active_ &= keep;
  switch (reason) {
    case Retirement::kExhausted:
      ++exhausted_;
      break;
    case Retirement::kConverged:
      ++converged_;
      break;
    case Retirement::kAtRest:
      ++at_rest_;
      break;
  }
  const std::uint64_t fire_ms = fi::injection_fire_ms(specs_[lane].spec->when);
  retirement_ticks_.push_back(now_ms >= fire_ms ? now_ms - fire_ms : 0);
  // The tick at now_ms has completed for this lane; everything after it
  // is skipped work.
  if (duration_ms_ > now_ms + 1) {
    saved_lane_ms_ += duration_ms_ - now_ms - 1;
  }
}

void BatchedArrestmentSystem::record_rows() {
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    bus_.extract_lane(lane, row_scratch_);
    traces_[lane].append(row_scratch_);
  }
}

}  // namespace propane::arr
