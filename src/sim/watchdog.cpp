#include "sim/watchdog.hpp"

#include <iostream>
#include <sstream>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace dyncon::sim {

namespace {

constexpr std::uint32_t slot_of(Watchdog::Token token) {
  return static_cast<std::uint32_t>(token & 0xffffffffu);
}
constexpr std::uint32_t serial_of(Watchdog::Token token) {
  return static_cast<std::uint32_t>(token >> 32);
}
constexpr Watchdog::Token pack(std::uint32_t serial, std::uint32_t slot) {
  return (static_cast<Watchdog::Token>(serial) << 32) | slot;
}

}  // namespace

Watchdog::Watchdog(EventQueue& queue, SimTime deadline)
    : queue_(queue), deadline_(deadline), sink_(&std::cerr) {}

Watchdog::Slot* Watchdog::find(Token token) {
  const std::uint32_t slot = slot_of(token);
  if (slot >= slots_.size()) return nullptr;
  Slot& s = slots_[slot];
  if (!s.live || s.serial != serial_of(token)) return nullptr;
  return &s;
}

Watchdog::Token Watchdog::arm(NodeId origin, const char* what) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.origin = origin;
  s.what = what;
  s.armed_at = queue_.now();
  s.serial = next_serial_++;
  s.extensions = 0;
  s.live = true;
  ++live_count_;
  ++armed_;
  const Token token = pack(s.serial, slot);
  // Interned: arm/disarm run once per request in every watched workload.
  static thread_local obs::CounterHandle armed_counter("watchdog.armed");
  armed_counter.add();
  schedule_deadline(token);
  return token;
}

void Watchdog::schedule_deadline(Token token) {
  if (deadline_ == 0) return;
  queue_.schedule_after(deadline_, [this, token] { on_deadline(token); });
}

void Watchdog::disarm(Token token) {
  Slot* s = find(token);
  DYNCON_REQUIRE(s != nullptr, "disarm of an unknown token");
  static thread_local obs::HistogramHandle latency("watchdog.request_ticks");
  latency.observe(queue_.now() - s->armed_at);
  s->live = false;
  s->what = nullptr;
  free_.push_back(slot_of(token));
  --live_count_;
  ++completed_;
  static thread_local obs::CounterHandle completed("watchdog.completed");
  completed.add();
}

void Watchdog::add_death_probe(const void* owner, DeathProbe probe) {
  DYNCON_REQUIRE(owner != nullptr, "death probe needs an owner key");
  probes_.push_back(Probe{owner, std::move(probe)});
}

void Watchdog::remove_death_probe(const void* owner) {
  for (auto it = probes_.begin(); it != probes_.end();) {
    it = it->owner == owner ? probes_.erase(it) : std::next(it);
  }
}

Watchdog::ProbeScope::ProbeScope(Watchdog* wd, const void* owner,
                                 DeathProbe probe)
    : wd_(wd), owner_(owner) {
  if (wd_ != nullptr) wd_->add_death_probe(owner_, std::move(probe));
}

Watchdog::ProbeScope::~ProbeScope() {
  if (wd_ != nullptr) wd_->remove_death_probe(owner_);
}

bool Watchdog::run_probes() {
  bool hopeful = false;
  for (auto& p : probes_) {
    static thread_local obs::CounterHandle probes("watchdog.probes");
    probes.add();
    if (p.fn()) hopeful = true;
  }
  return hopeful;
}

std::size_t Watchdog::run_recovery_sweep() {
  if (probes_.empty()) return 0;
  const std::size_t before = live_count_;
  (void)run_probes();
  return before - live_count_;
}

void Watchdog::on_deadline(Token token) {
  Slot* s = find(token);
  if (s == nullptr) return;  // completed in time; stale probe
  // Recovery escape hatch: a registered death probe may resolve the hang
  // (orphan-lock release wave) or vouch that a node outage is still being
  // ridden out.  Either way the deadline extends — a bounded number of
  // times, so a probe that is merely optimistic cannot mask a real hang.
  if (!probes_.empty() && s->extensions < kMaxExtensions) {
    ++s->extensions;
    const bool hopeful = run_probes();
    Slot* after = find(token);
    if (after == nullptr) return;  // a probe resolved this very request
    if (hopeful) {
      static thread_local obs::CounterHandle rearms("watchdog.probe_rearms");
      rearms.add();
      schedule_deadline(token);
      return;
    }
  }
  obs::count("watchdog.expired");
  abort_run("request \"" + std::string(s->what ? s->what : "?") +
            "\" (origin " + std::to_string(s->origin) + ", armed at t=" +
            std::to_string(s->armed_at) + ") passed its deadline of " +
            std::to_string(deadline_) + " ticks with no verdict");
}

void Watchdog::verify_idle() const {
  if (live_count_ == 0) return;
  obs::count("watchdog.idle_violations");
  abort_run("event queue drained with " + std::to_string(live_count_) +
            " request(s) still outstanding — they can never complete");
}

void Watchdog::abort_run(const std::string& why) const {
  obs::count("watchdog.aborts");
  if (sink_ != nullptr) {
    std::ostream& out = *sink_;
    out << "watchdog: liveness violated at t=" << queue_.now() << ": " << why
        << "\n";
    out << "watchdog: " << live_count_ << " outstanding request(s):\n";
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const Slot& e = slots_[slot];
      if (!e.live) continue;
      out << "  token=" << pack(e.serial, slot) << " origin=" << e.origin
          << " armed_at=" << e.armed_at
          << " what=" << (e.what ? e.what : "?") << "\n";
    }
    // Post-mortem via the obs layer, when installed: every counter the run
    // touched, then the typed events leading up to the hang (JSONL, newest
    // last) — the same dump the fuzzer emits on a violation.
    if (const obs::Registry* reg = obs::metrics()) {
      std::ostringstream snapshot;
      reg->to_json().dump(snapshot, 2);
      out << "watchdog: metrics snapshot:\n" << snapshot.str() << "\n";
    }
    if (const obs::EventTrace* tr = obs::trace()) {
      out << "watchdog: trace tail (" << tr->size() << " of "
          << tr->recorded() << " events, " << tr->overwritten()
          << " overwritten):\n";
      tr->dump_jsonl(out, 64);
    }
  }
  throw WatchdogError("watchdog: " + why);
}

}  // namespace dyncon::sim
