// Typed POD event records and the scheduler that runs them.
//
// Every message-based simulation impl schedules fixed-size
// `SimEventRecord`s on a `SimEventEngine` — a FIFO run plus a key heap of
// plain structs (event_engine.hpp) — and dispatches them through one switch
// (simulation_event.cpp).
// There is no type erasure and no per-event heap allocation: payloads ride
// inline in the record when they fit (one double plane, push-sum mass
// halves) or in a recycled arena slot (payload_arena.hpp) when they don't.
//
// Determinism: records pop in ascending `(time, sequence)` order, so events
// at equal timestamps run in scheduling order and the RNG draw order is a
// pure function of the seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/contract.hpp"
#include "common/types.hpp"
#include "sim/event_engine.hpp"
#include "sim/payload_arena.hpp"

namespace epiagg {

/// Event variants of the message-based impls. Field usage per kind:
///
///   kWake            a = node, gen_a = its generation at scheduling
///   kMembershipWake  a = node, gen_a = generation
///   kAdaptiveWake    a = node, gen_a = generation
///   kTick            tag = the integer time t
///   kPush            a = initiator, b = addressee, gen_a/gen_b = their
///                    generations, tag = epoch tag, payload in v0 (one
///                    plane) or slab (multi-plane / counting instances)
///   kReply           a = addressee (the original initiator), gen_a = its
///                    generation, tag = epoch tag, payload as for kPush
///   kAdoptNotify     a = addressee, gen_a = generation, tag = the newer
///                    epoch id (adaptive-epoch epidemic fast-forward)
///   kPushSumDeliver  b = addressee, v0 = half sum, v1 = half weight
enum class EvKind : std::uint8_t {
  kWake,
  kMembershipWake,
  kAdaptiveWake,
  kTick,
  kPush,
  kReply,
  kAdoptNotify,
  kPushSumDeliver,
};

/// Field order packs the record into 48 bytes, so a run Entry — `(time,
/// sequence, record)` — is exactly one 64-byte cache line, and a heap-held
/// event is a 24-byte key plus one 48-byte pool slot. The generation guards
/// are 32-bit on the wire: they only ever compare for EQUALITY against a
/// counter bumped once per crash of one slot, so wrap-around would need
/// 2^32 crashes of a single node within one message's flight.
struct SimEventRecord {
  double v0 = 0.0;
  double v1 = 0.0;
  EpochId tag = 0;  // epoch tag, or the integer time for kTick
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  std::uint32_t gen_a = 0;
  std::uint32_t gen_b = 0;
  std::uint32_t slab = kNoSlab;
  EvKind kind = EvKind::kWake;
};
static_assert(sizeof(SimEventRecord) == 48,
              "SimEventRecord must keep a CalendarQueue Entry at one cache "
              "line (64 bytes)");

/// A deterministic scheduler of SimEventRecords, popped in ascending
/// `(time, sequence)` order. The clock starts at 0.
class SimEventEngine {
public:
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime t, const SimEventRecord& record) {
    EPIAGG_EXPECTS(t >= now_, "cannot schedule events in the past");
    queue_.push(t, next_sequence_++, record);
  }

  void schedule_after(SimTime delay, const SimEventRecord& record) {
    EPIAGG_EXPECTS(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, record);
  }

  /// Runs events through `handle` until simulated time exceeds `t_end` or
  /// the queue drains; events exactly at t_end are executed. The clock then
  /// advances to t_end (never backwards).
  template <typename Handler>
  void run_until(SimTime t_end, Handler&& handle) {
    CalendarQueue<SimEventRecord>::Entry entry;
    while (queue_.pop_min_if(t_end, entry)) {
      EPIAGG_ASSERT(entry.time >= now_, "event queue time went backwards");
      now_ = entry.time;
      ++processed_;
      handle(entry.payload);
    }
    now_ = std::max(now_, t_end);
  }

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

private:
  CalendarQueue<SimEventRecord> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace epiagg
