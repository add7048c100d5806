#pragma once

// Liveness watchdog: "eventually" as an enforced, testable contract.
//
// Lemma 3.2's promise — every request is eventually granted or rejected —
// is invisible to an ordinary test on a lossy network: a dropped message
// silently strands an agent, the event queue drains, and the run just
// *ends* with the request answered by nobody.  The watchdog turns that
// silence into a loud, replayable failure:
//
//   * a protocol arms a token per outstanding request (the distributed
//     controllers do this for every submission when handed a watchdog) and
//     disarms it when the completion callback fires;
//   * arming schedules a deadline probe `deadline` ticks out; if the probe
//     fires with the token still armed, the run aborts — unless a death
//     probe (below) claims recovery is still in progress, in which case
//     the deadline is extended a bounded number of times;
//   * `verify_idle()` is the drain-time check — call it after the event
//     loop empties to assert nothing is still armed.
//
// Death probes are the crash-recovery hook (ROADMAP item 3): a controller
// registers a callback that, when a request overstays its deadline, checks
// for dead lock holders and drives the orphan-lock release wave.  The
// probe returns true if it acted (or a node outage is still in progress,
// so the request may yet complete), telling the watchdog to re-arm rather
// than abort.  Probes are keyed by an owner pointer — the same discipline
// as Network's link checks — because the iterated wrapper rotates inner
// controller instances and the adaptive wrapper runs two at once.
//
// Hot-path contract (PR 4): arm/disarm are allocation-free.  Entries live
// in a recycled slot slab; a token packs (serial, slot) so lookups are
// O(1) with stale-token detection; labels are `const char*` (callers pass
// static strings such as request_type_name()).  An abort dumps a
// post-mortem — every outstanding request, the metrics snapshot, and the
// typed trace tail — to a pluggable sink (default std::cerr; parallel
// soak harnesses install a private stream so dumps never interleave),
// then throws WatchdogError.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/inline_fn.hpp"

namespace dyncon::sim {

/// A liveness violation: a request was neither granted nor rejected by its
/// deadline (or by the time the event queue drained).
class WatchdogError : public InvariantError {
 public:
  using InvariantError::InvariantError;
};

class Watchdog {
 public:
  using Token = std::uint64_t;
  /// Invoked when a request overstays its deadline (and by
  /// run_recovery_sweep).  Returns true if the probe made progress or
  /// believes completion is still possible (e.g. a node is mid-outage);
  /// false means "nothing I can do".
  using DeathProbe = InlineFn<bool()>;

  /// `deadline` is the per-request tick budget; 0 disables the scheduled
  /// probes (only `verify_idle` then enforces anything).  The watchdog
  /// must outlive every run of `queue` that can fire one of its probes.
  Watchdog(EventQueue& queue, SimTime deadline);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Register an outstanding request.  `what` is a short label for the
  /// post-mortem and MUST outlive the token (pass a static string, e.g.
  /// core::request_type_name).  Allocation-free in steady state.
  [[nodiscard]] Token arm(NodeId origin, const char* what);

  /// The request completed (granted, rejected, moot — any verdict counts;
  /// what the watchdog enforces is that *some* verdict arrives).
  void disarm(Token token);

  /// Drain-time check: the event queue has gone quiet, so anything still
  /// armed can never complete.  Throws WatchdogError if something is.
  void verify_idle() const;

  /// Register / remove a recovery probe.  `owner` keys removal (the same
  /// pattern as Network::set_link_check); probes run in install order.
  void add_death_probe(const void* owner, DeathProbe probe);
  void remove_death_probe(const void* owner);

  /// Arm a token for one request and wrap `done` in place so that its
  /// verdict disarms the token first — the one place every controller that
  /// takes a watchdog arms.  Pass a static `what` (request_type_name) so
  /// arming stays allocation-free.  A null watchdog leaves `done` as is.
  template <typename Callback>
  static void guard(Watchdog* wd, NodeId origin, const char* what,
                    Callback& done) {
    if (wd == nullptr) return;
    const Token token = wd->arm(origin, what);
    done = [wd, token, done = std::move(done)](const auto& verdict) {
      wd->disarm(token);
      done(verdict);
    };
  }

  /// A death probe installed for the lifetime of its owner (keyed by
  /// `owner`); inert when constructed with a null watchdog.
  class ProbeScope {
   public:
    ProbeScope(Watchdog* wd, const void* owner, DeathProbe probe);
    ~ProbeScope();
    ProbeScope(const ProbeScope&) = delete;
    ProbeScope& operator=(const ProbeScope&) = delete;

   private:
    Watchdog* wd_;
    const void* owner_;
  };

  /// Run every death probe once, outside any deadline (the drain-time
  /// recovery path: queue.run(); while (run_recovery_sweep()) queue.run();
  /// verify_idle()).  Returns the number of tokens the probes resolved.
  std::size_t run_recovery_sweep();

  /// Post-mortem sink.  Default is std::cerr; nullptr silences the dump
  /// (the WatchdogError still carries the one-line reason).
  void set_sink(std::ostream* sink) { sink_ = sink; }

  /// How many times one token's deadline may be extended by a hopeful
  /// death probe before the watchdog aborts anyway.
  static constexpr std::uint32_t kMaxExtensions = 8;

  [[nodiscard]] std::size_t outstanding() const { return live_count_; }
  [[nodiscard]] std::uint64_t armed_total() const { return armed_; }
  [[nodiscard]] std::uint64_t completed_total() const { return completed_; }
  [[nodiscard]] SimTime deadline() const { return deadline_; }

 private:
  struct Slot {
    NodeId origin = kNoNode;
    const char* what = nullptr;
    SimTime armed_at = 0;
    std::uint32_t serial = 0;
    std::uint32_t extensions = 0;
    bool live = false;
  };
  struct Probe {
    const void* owner;
    DeathProbe fn;
  };

  [[nodiscard]] Slot* find(Token token);
  void on_deadline(Token token);
  /// True if any probe reports progress/hope.
  bool run_probes();
  void schedule_deadline(Token token);
  [[noreturn]] void abort_run(const std::string& why) const;

  EventQueue& queue_;
  SimTime deadline_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Probe> probes_;
  std::ostream* sink_;
  std::size_t live_count_ = 0;
  std::uint32_t next_serial_ = 1;
  std::uint64_t armed_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace dyncon::sim
