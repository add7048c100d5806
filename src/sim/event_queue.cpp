#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace dyncon::sim {

void EventQueue::schedule_after(SimTime delay, Action action) {
  schedule_at(now_ + delay, std::move(action));
}

void EventQueue::schedule_at(SimTime when, Action action) {
  DYNCON_REQUIRE(when >= now_, "cannot schedule in the past");
  DYNCON_REQUIRE(static_cast<bool>(action), "null action");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(action);
  }
  const Entry e{when, seq_++, slot};
  if (when < now_ + kWindow) {
    bucket_put(e);
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

void EventQueue::bucket_put(const Entry& e) {
  const std::size_t idx = static_cast<std::size_t>(e.when % kWindow);
  buckets_[idx].push_back(e);
  live_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  ++bucket_pending_;
}

void EventQueue::migrate() {
  // Every heap entry whose time just entered the window moves to its
  // bucket NOW — before any action at the new time can schedule — so
  // bucket appends stay in ascending seq order (the heap drains in
  // (when, seq) order; later direct schedules carry larger seqs).
  const SimTime limit = now_ + kWindow;
  while (!heap_.empty() && heap_.front().when < limit) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    bucket_put(heap_.back());
    heap_.pop_back();
  }
}

SimTime EventQueue::earliest_bucket_time() const {
  // Bit b of live_ marks bucket b; bucket b holds the unique window time
  // congruent to b mod kWindow.  Scan [offset, kWindow) for times in
  // [now_, base + kWindow), then wrap to [0, offset) for the rest.
  const SimTime base = now_ - (now_ % kWindow);
  const std::size_t offset = static_cast<std::size_t>(now_ % kWindow);
  std::size_t word = offset / 64;
  std::uint64_t bits = live_[word] & (~std::uint64_t{0} << (offset % 64));
  for (;;) {
    if (bits != 0) {
      const std::size_t idx =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return idx >= offset ? base + idx : base + kWindow + idx;
    }
    ++word;
    if (word == kBitmapWords) word = 0;  // wrap to the [0, offset) tail
    bits = live_[word];
  }
}

void EventQueue::step() {
  DYNCON_REQUIRE(!empty(), "step on empty queue");
  // After migrate(), every heap entry sits at or beyond now_ + kWindow and
  // every bucket entry strictly inside, so a non-empty calendar always owns
  // the earliest event; the comparison is a safety net for the empty case.
  Entry e;
  bool from_bucket = false;
  if (bucket_pending_ != 0) {
    const SimTime tb = earliest_bucket_time();
    if (heap_.empty() || tb < heap_.front().when) {
      const std::size_t idx = static_cast<std::size_t>(tb % kWindow);
      std::vector<Entry>& b = buckets_[idx];
      e = b[cursor_[idx]++];
      if (cursor_[idx] == b.size()) {
        b.clear();  // capacity retained: no steady-state allocation
        cursor_[idx] = 0;
        live_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
      }
      --bucket_pending_;
      from_bucket = true;
    }
  }
  if (!from_bucket) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    e = heap_.back();
    heap_.pop_back();
  }
  // Move the action out of its slab slot (and recycle the slot) before
  // invoking: the action may schedule new events and reallocate the slab.
  Action action = std::move(slab_[e.slot]);
  free_.push_back(e.slot);
  if (e.when != now_) {
    now_ = e.when;
    // The window slid: pull newly-near heap entries in.  Checked here so
    // the (dominant) empty-heap case never pays the call.
    if (!heap_.empty()) migrate();
  }
  ++fired_;
  action();
}

std::uint64_t EventQueue::run_until(SimTime horizon) {
  std::uint64_t n = 0;
  while (!empty() && next_time() < horizon) {
    step();
    ++n;
  }
  return n;
}

std::uint64_t EventQueue::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (!empty() && n < max_events) {
    step();
    ++n;
  }
  return n;
}

}  // namespace dyncon::sim
