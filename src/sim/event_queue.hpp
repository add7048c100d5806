#pragma once

// Discrete-event simulation core.
//
// The paper's model is a fully asynchronous message-passing network with
// arbitrary-but-finite message delays.  We realize executions of that model
// with a deterministic discrete-event loop: every message delivery (and
// every environment action, such as a request arrival) is an event with a
// firing time; ties are broken by insertion sequence so a run is a pure
// function of (scenario, seed).
//
// Hot-path notes: actions are InlineFn (inline storage, no heap) living
// out-of-line in a slot slab (recycled through a free list), so the records
// the queue shuffles are trivially copyable 24-byte entries.
//
// The queue itself is a two-tier calendar (PR 9): a window of kWindow
// one-tick FIFO buckets covers [now, now + kWindow), and everything farther
// out waits in a binary heap.  Near-term traffic — which is almost all of
// it: protocol messages ride 1-tick links, resumes fire at +0 — costs an
// append and a bitmap scan per event instead of O(log n) sift levels
// through a heap that open-loop benches keep ~10^5 entries deep.  Far
// entries migrate heap -> bucket when the window slides over them, which
// happens exactly once per entry (amortized one heap pop per far schedule).
//
// Exactness of the (when, seq) order, which byte-identical replay rests on:
//   * a bucket only ever holds ONE firing time (the window spans kWindow
//     ticks, so within it each residue class mod kWindow names one tick;
//     ticks at or before `now` are fully drained before `now` advances);
//   * appends to a bucket arrive in ascending seq: the window only slides
//     when now advances, migration drains the heap in (when, seq) order at
//     that instant — before any action at the new time can schedule — and
//     direct schedules afterwards carry strictly larger seqs;
//   * the heap and the buckets never hold the same firing time (a time
//     inside the window was either migrated already or was never eligible
//     for the heap), so min(bucket front, heap top) needs no tie-break.

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/inline_fn.hpp"

namespace dyncon::sim {

/// Deterministic discrete-event queue.
class EventQueue {
 public:
  using Action = InlineFn<void()>;

  /// Width of the near-term calendar window, in ticks.
  static constexpr SimTime kWindow = 256;

  /// Schedule `action` to fire `delay` ticks after the current time.
  void schedule_after(SimTime delay, Action action);

  /// Schedule at an absolute time (must not be in the past).
  void schedule_at(SimTime when, Action action);

  /// Fire the earliest pending event.  Requires !empty().
  void step();

  /// Run until no events remain or `max_events` have fired.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Fire events in (when, seq) order while the next firing time is strictly
  /// below `horizon` (events an action schedules inside the horizon fire
  /// too).  Events at or past the horizon stay pending — this is how the
  /// forest runtime advances shards in bounded virtual-time windows.
  /// Returns the number of events fired.
  std::uint64_t run_until(SimTime horizon);

  /// Firing time of the earliest pending event.  Requires !empty().
  [[nodiscard]] SimTime next_time() const {
    DYNCON_REQUIRE(!empty(), "next_time on empty queue");
    if (bucket_pending_ != 0) {
      const SimTime tb = earliest_bucket_time();
      return heap_.empty() || tb < heap_.front().when ? tb
                                                      : heap_.front().when;
    }
    return heap_.front().when;
  }

  /// Pre-size the far heap (events the caller is about to schedule).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slab_.reserve(events);
    free_.reserve(events);
  }

  [[nodiscard]] bool empty() const {
    return heap_.empty() && bucket_pending_ == 0;
  }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + bucket_pending_;
  }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Credit `n` additional fired events without dispatching through the
  /// queue.  An inlined grant wave runs k logical events under one queue
  /// pop; crediting the other k-1 here keeps events_fired() — and every
  /// perf.events counter derived from it — identical to a run that
  /// scheduled each of them.
  void count_extra_fired(std::uint64_t n) { fired_ += n; }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index of the action in slab_
  };
  static_assert(std::is_trivially_copyable_v<Entry>,
                "queue shuffles must reduce to memcpy");
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kBitmapWords = kWindow / 64;

  void bucket_put(const Entry& e);
  /// Slide the window to the (just advanced) now_: drain heap entries whose
  /// time fell inside [now_, now_ + kWindow) into their buckets, in
  /// (when, seq) order.
  void migrate();
  /// Earliest non-empty bucket's firing time; requires bucket_pending_ != 0.
  [[nodiscard]] SimTime earliest_bucket_time() const;

  std::vector<Entry> heap_;  // beyond-window events; max-heap under Later
  std::array<std::vector<Entry>, kWindow> buckets_;  // one tick each, FIFO
  std::array<std::uint32_t, kWindow> cursor_{};  // per-bucket read position
  std::array<std::uint64_t, kBitmapWords> live_{};  // non-empty-bucket bits
  std::size_t bucket_pending_ = 0;
  std::vector<Action> slab_;          // pending actions, addressed by slot
  std::vector<std::uint32_t> free_;   // recycled slab slots
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
};

}  // namespace dyncon::sim
