#ifndef CODES_SERVE_BROWNOUT_H_
#define CODES_SERVE_BROWNOUT_H_

#include <cstdint>

#include "core/pipeline.h"

namespace codes {
namespace serve {

/// Adaptive prompt-richness controller. It picks the row of the brownout
/// level table (kBrownoutLevels in core/pipeline.h) that admitted requests
/// are served at: each level strips the next-cheapest source of quality
/// so admitted requests keep meeting their deadlines instead of the
/// process rejecting everything.
///
/// Levels move one step at a time on a queue-fullness signal with two
/// guards against flapping: watermark hysteresis (degrade above `high`,
/// recover below `low`, hold in between) and a minimum dwell time between
/// consecutive changes. Explicit-time like the rest of src/serve/; not
/// thread-safe.
class BrownoutController {
 public:
  struct Options {
    int max_level = kNumBrownoutLevels - 1;
    /// Queue fullness (depth / capacity) at or above which richness steps
    /// down one level.
    double high_watermark = 0.75;
    /// Fullness at or below which richness steps back up one level.
    double low_watermark = 0.25;
    /// Minimum time between consecutive level changes.
    uint64_t dwell_us = 250'000;
  };

  explicit BrownoutController(const Options& options);

  /// Feeds one observation of queue fullness in [0, 1]; returns the level
  /// in force after the observation.
  int Update(double queue_fullness, uint64_t now_us);

  int level() const { return level_; }
  /// Times richness stepped down (level went up) / back up.
  uint64_t degrades() const { return degrades_; }
  uint64_t recoveries() const { return recoveries_; }

 private:
  Options options_;
  int level_ = 0;
  uint64_t last_change_us_ = 0;
  bool primed_ = false;  ///< first Update anchors the dwell clock
  uint64_t degrades_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace serve
}  // namespace codes

#endif  // CODES_SERVE_BROWNOUT_H_
