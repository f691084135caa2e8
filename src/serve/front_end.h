#ifndef CODES_SERVE_FRONT_END_H_
#define CODES_SERVE_FRONT_END_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "serve/admission.h"
#include "serve/brownout.h"
#include "serve/circuit_breaker.h"
#include "serve/harden.h"

namespace codes {
namespace serve {

/// Pipeline stages guarded by a circuit breaker, each mapped to the ladder
/// rung the front end forces while its breaker is open:
///
///   kClassifier      → force_classifier_fallback (full schema)
///   kValueRetrieval  → force_value_fallback      (no matched values)
///   kGeneration      → force_emergency_sql       (trivial query)
enum class ServeStage : int {
  kClassifier = 0,
  kValueRetrieval,
  kGeneration,
  kNumStages,  // sentinel
};

inline constexpr int kNumServeStages =
    static_cast<int>(ServeStage::kNumStages);

const char* ServeStageName(ServeStage stage);

/// Configuration of the overload-protection front end.
struct FrontEndOptions {
  AdmissionController::Options admission;
  /// One breaker per stage, all sharing this tuning.
  CircuitBreaker::Options breaker;
  BrownoutController::Options brownout;
  /// Execution budgets stamped into every request's ServeOptions.
  ExecLimits limits;
  /// Deadline assigned to requests that arrive without one (0 = none).
  uint64_t default_deadline_us = 0;
  /// Request-hardening front door (UTF-8 repair, byte cap, control strip,
  /// anomaly scoring), applied by Harden before the pipeline sees the
  /// question: on the wall-clock paths by the front end itself, on the
  /// explicit-time API by its single owner (codes_load hardens on the DES
  /// driver thread). `harden.enabled = false` serves questions untouched.
  HardenOptions harden;
  /// Tenant display names, parallel to admission.tenants. When non-empty,
  /// every offer/admit/reject/shed is also attributed to a
  /// serve.tenant.<name>.* counter family, which carries the global
  /// accounting invariant per tenant.
  std::vector<std::string> tenant_names;
};

/// The overload-protection front end between callers and
/// CodesPipeline::PredictGuarded: token-bucket admission, a bounded
/// deadline-aware queue, per-stage circuit breakers, and the adaptive
/// brownout controller, all emitting the serve.* metric families.
///
/// Metric accounting contract: every offered request lands in exactly one
/// of admitted / rejected / shed, globally and per configured tenant. The
/// identities are declared as MetricInvariants where front_end.cc
/// registers the counters, and MetricsSnapshot::CheckInvariants (run by
/// every campaign tool before it exports a snapshot) evaluates them.
///
/// Two usage modes share all decision logic:
///
///  * Explicit-time API (Harden/Offer/Dequeue/OptionsFor/Complete/Drain):
///    the caller owns the clock. codes_load drives it with a virtual clock
///    from a single DES thread, which is what makes saturation campaigns
///    byte-identical at any real thread count. NOT thread-safe; a single
///    owner serializes calls.
///  * Wall-clock API (Serve/TryServeAsync): thread-safe convenience
///    wrappers that derive time from a steady clock and use the caller
///    (or the thread pool's bounded queue) as the waiting room.
class ServeFrontEnd {
 public:
  /// `pipeline` and `bench` must outlive the front end; they are only
  /// dereferenced by the wall-clock serving paths.
  ServeFrontEnd(const CodesPipeline* pipeline, const Text2SqlBenchmark* bench,
                const FrontEndOptions& options);

  // --- explicit-time API (single owner) -------------------------------

  /// Offers request `id` at `now_us`. kEnqueued means it is waiting in
  /// the deadline queue; a rejection is final (metrics recorded here).
  /// `tenant` (an index into FrontEndOptions::tenant_names) attributes
  /// the request to its owner; -1 means untenanted traffic.
  Admission Offer(uint64_t id, uint64_t deadline_us, uint64_t now_us,
                  int tenant = -1);

  /// Pops the next serveable request, shedding expired entries along the
  /// way (each shed is recorded, and appended to `shed` when non-null so
  /// the caller can account per-request). True = `out` is admitted
  /// (counted, wait time observed) and the caller must execute it with
  /// OptionsFor() and report back via Complete().
  bool Dequeue(uint64_t now_us, QueuedRequest* out,
               std::vector<QueuedRequest>* shed = nullptr);

  /// The hardening front door, written once for every serving path:
  /// rewrites `sample`'s question to its sanitized form and returns the
  /// verdict — the canonical question when the request is suspect,
  /// nullopt when it is clean or hardening is off. Pure and lock-free, so
  /// callers run it outside the front end's lock.
  std::optional<std::string> Harden(Text2SqlSample* sample) const;

  /// The request plan for a request dispatched at `now_us`, decided once
  /// and in this order: (1) take the hardening verdict (`canonical` set =
  /// suspect); (2) level = max(brownout controller level, the suspect
  /// floor HardenOptions::suspect_floor_level); (3) look up that level's
  /// kBrownoutLevels row; (4) consult the breakers only for the stages
  /// the row still runs, so a request never takes a half-open probe slot
  /// it cannot report on; (5) stamp the canonical question and count
  /// serve.adv.pre_degraded. Limits come from FrontEndOptions.
  ServeOptions OptionsFor(uint64_t now_us,
                          std::optional<std::string> canonical = {});

  /// Feeds a finished request's report back into the breakers (stages the
  /// front end itself forced, or the request's brownout row stripped, are
  /// skipped — their "failures" are self-inflicted) and the per-level
  /// served counters.
  void Complete(const ServeOptions& options_used, const ServeReport& report,
                uint64_t now_us);

  /// Sheds everything still queued (campaign end); returns the count and
  /// appends the victims to `shed` when non-null.
  size_t Drain(uint64_t now_us, std::vector<QueuedRequest>* shed = nullptr);

  /// Feeds queue fullness into the brownout controller and refreshes the
  /// serve.queue.depth / serve.brownout.level gauges. Call whenever depth
  /// changes (arrivals, dispatches).
  void ObserveQueue(uint64_t now_us);

  int brownout_level() const { return brownout_.level(); }
  const BrownoutController& brownout() const { return brownout_; }
  BreakerState breaker_state(ServeStage stage) const {
    return breakers_[static_cast<int>(stage)].state();
  }
  uint64_t breaker_transitions(ServeStage stage) const {
    return breakers_[static_cast<int>(stage)].transitions();
  }
  size_t queue_depth() const { return admission_.queue_depth(); }

  // --- wall-clock API (thread-safe) -----------------------------------

  /// Synchronous guarded serving with admission control. There is no
  /// queue on this path — the calling thread is the waiting slot, so
  /// "queue depth" is the number of in-flight Serve calls and admission
  /// rejects once `queue_capacity` callers are already inside. Returns
  /// kResourceExhausted on rejection (no SQL produced), OK otherwise.
  Status Serve(const Text2SqlSample& sample, std::string* sql,
               ServeReport* report = nullptr);

  /// Bounded asynchronous serving: admission (token bucket) now, then
  /// TrySubmit to `pool` with the admission queue capacity as the backlog
  /// bound. False = rejected (rate or pool backlog full); when true,
  /// `done` eventually runs on a pool thread with the outcome — status is
  /// kTimeout (empty SQL) when the request expired in the backlog and was
  /// shed without touching the pipeline.
  bool TryServeAsync(
      const Text2SqlSample& sample, ThreadPool* pool,
      std::function<void(const Status&, const std::string&,
                         const ServeReport&)> done);

 private:
  /// Per-tenant slice of the admission counters (the serve.tenant.<name>.*
  /// family); pointers into the global registry, resolved once at
  /// construction.
  struct TenantCounters {
    Counter* offered;
    Counter* admitted;
    Counter* rejected;
    Counter* shed;
  };

  uint64_t WallNowUs() const;

  /// The counter slice for `tenant`, or nullptr for untenanted traffic.
  TenantCounters* TenantOf(int tenant);

  Admission OfferLocked(uint64_t id, uint64_t deadline_us, uint64_t now_us,
                        int tenant);
  ServeOptions OptionsForLocked(uint64_t now_us,
                                std::optional<std::string> canonical);
  void CompleteLocked(const ServeOptions& options_used,
                      const ServeReport& report, uint64_t now_us);
  void ObserveFullnessLocked(double fullness, uint64_t now_us);
  /// Emits breaker transition counters for `stage` when `before` differs
  /// from the breaker's current state.
  void NoteBreakerTransition(ServeStage stage, BreakerState before);

  const CodesPipeline* pipeline_;
  const Text2SqlBenchmark* bench_;
  FrontEndOptions options_;

  /// Serializes the wall-clock paths; the explicit-time API relies on its
  /// single owner instead (a DES driver never contends).
  std::mutex mu_;
  AdmissionController admission_;
  std::vector<TenantCounters> tenant_metrics_;
  CircuitBreaker breakers_[kNumServeStages];
  BrownoutController brownout_;
  size_t in_flight_ = 0;  ///< wall-clock Serve calls currently inside
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_FRONT_END_H_
