#ifndef CODES_CORE_MODEL_ZOO_H_
#define CODES_CORE_MODEL_ZOO_H_

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "generator/capacity.h"
#include "lm/ngram_lm.h"

namespace codes {

/// Builds and owns the pre-trained language models of the study:
///  * Base(order)  — "StarCoderBase": trained once on the mixed-language
///    code corpus (SQL is a small fraction).
///  * Codes(order) — the same base counts, then *incrementally pre-trained*
///    on the SQL-centric corpus (SQL-related ×2 epochs, NL ×1, NL-to-code
///    ×1, matching Section 5.2's schedule).
/// One LM is trained per n-gram order 2..5 because the order is a model-
/// size capacity knob. Each model is trained on its first access (once,
/// even under concurrent first access) from corpora built for that
/// training and then dropped, so a deployment that reads one LM holds
/// one model instead of eight. The corpora are deterministic in
/// (scale, seed), so every model trains on the same documents.
class LmZoo {
 public:
  /// `scale` multiplies corpus sizes (see corpus/pretrain_corpus.h).
  explicit LmZoo(int scale = 1, uint64_t seed = 31);

  const NgramLm& Base(int order) const;
  const NgramLm& Codes(int order) const;

  /// LM matched to a model size's n-gram order.
  const NgramLm* BaseFor(ModelSize size) const;
  const NgramLm* CodesFor(ModelSize size) const;

 private:
  struct OrderModels {
    std::once_flag base_trained;
    std::once_flag codes_trained;
    std::unique_ptr<NgramLm> base;
    std::unique_ptr<NgramLm> codes;
  };

  OrderModels& At(int order) const;
  std::unique_ptr<NgramLm> TrainBase(int order) const;

  int scale_;
  uint64_t seed_;
  mutable std::array<OrderModels, 4> orders_;  // index = order - 2
};

/// One row of the Table 4 baseline matrix: an open-source LLM emulated by
/// a capacity profile, an LM choice, and a family-quality noise offset.
/// The offsets are calibration constants standing in for architecture/
/// pre-training differences the substitute cannot model from first
/// principles; they are documented in DESIGN.md.
struct BaselineSpec {
  std::string name;
  ModelSize profile;
  bool sql_pretrained = false;  ///< use the incrementally pre-trained LM
  double extra_noise = 0.0;
};

/// The few-shot baseline lineup of Table 4 (base models first, then the
/// four CodeS scales).
std::vector<BaselineSpec> Table4Baselines();

}  // namespace codes

#endif  // CODES_CORE_MODEL_ZOO_H_
