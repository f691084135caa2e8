#ifndef CODES_COMMON_TRACE_H_
#define CODES_COMMON_TRACE_H_

#include <chrono>

#include "common/metrics.h"

namespace codes {

/// Lightweight request tracing: an RAII TraceSpan times one stage with the
/// steady clock and feeds the duration to a Histogram (usually cached via
/// CODES_TRACE_SPAN). This is how per-stage latency breakdowns accumulate
/// in the MetricsRegistry.
///
/// Cost model: an armed span is two steady-clock reads plus one relaxed
/// histogram update; with MetricsRegistry::SetEnabled(false), constructor
/// and destructor are a couple of branches (bench_latency enforces the
/// <= 2% end-to-end budget). Spans are strictly thread-local: a request's
/// spans live on the thread serving it, which is exactly the share-nothing
/// model of the parallel evaluator.

/// RAII span: opens on construction, closes on destruction, and feeds
/// the duration in us to `histogram` — use CODES_TRACE_SPAN to resolve it
/// once per call site.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* histogram);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  bool armed_ = false;  ///< false => destructor is a no-op
};

/// Declares a span named `name` (a string literal) whose duration feeds
/// the global histogram "span.<name>"; the histogram reference resolves
/// once per call site.
#define CODES_TRACE_SPAN(var, name)                                   \
  static ::codes::Histogram& var##_histogram =                        \
      ::codes::MetricsRegistry::Global().GetHistogram("span." name);  \
  ::codes::TraceSpan var(&var##_histogram)

}  // namespace codes

#endif  // CODES_COMMON_TRACE_H_
