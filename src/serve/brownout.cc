#include "serve/brownout.h"

#include <algorithm>

namespace codes {
namespace serve {

BrownoutController::BrownoutController(const Options& options)
    : options_(options) {
  options_.max_level =
      std::clamp(options_.max_level, 0, kNumBrownoutLevels - 1);
  options_.high_watermark = std::clamp(options_.high_watermark, 0.0, 1.0);
  options_.low_watermark =
      std::clamp(options_.low_watermark, 0.0, options_.high_watermark);
}

int BrownoutController::Update(double queue_fullness, uint64_t now_us) {
  if (!primed_) {
    primed_ = true;
    // Anchor the dwell clock one dwell in the past so a front end born
    // into an overload can degrade on its first observation.
    last_change_us_ = now_us >= options_.dwell_us
                          ? now_us - options_.dwell_us
                          : 0;
  }
  if (now_us - last_change_us_ < options_.dwell_us) return level_;
  if (queue_fullness >= options_.high_watermark &&
      level_ < options_.max_level) {
    ++level_;
    ++degrades_;
    last_change_us_ = now_us;
  } else if (queue_fullness <= options_.low_watermark && level_ > 0) {
    --level_;
    ++recoveries_;
    last_change_us_ = now_us;
  }
  return level_;
}

}  // namespace serve
}  // namespace codes
