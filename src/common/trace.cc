#include "common/trace.h"

namespace codes {

TraceSpan::TraceSpan(Histogram* histogram) : histogram_(histogram) {
  armed_ = MetricsRegistry::Enabled();
  if (armed_) start_ = std::chrono::steady_clock::now();
}

TraceSpan::~TraceSpan() {
  if (!armed_ || !MetricsRegistry::Enabled()) return;
  auto duration = std::chrono::steady_clock::now() - start_;
  histogram_->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(duration)
          .count()));
}

}  // namespace codes
