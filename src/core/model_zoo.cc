#include "core/model_zoo.h"

#include "common/status.h"
#include "corpus/pretrain_corpus.h"

namespace codes {

LmZoo::LmZoo(int scale, uint64_t seed) : scale_(scale), seed_(seed) {}

LmZoo::OrderModels& LmZoo::At(int order) const {
  CODES_CHECK(order >= 2 && order <= 5);
  return orders_[static_cast<size_t>(order - 2)];
}

std::unique_ptr<NgramLm> LmZoo::TrainBase(int order) const {
  auto lm = std::make_unique<NgramLm>(order);
  lm->Train(BuildBaseCodeCorpus(2500 * scale_, seed_), /*epochs=*/1);
  return lm;
}

const NgramLm& LmZoo::Base(int order) const {
  OrderModels& m = At(order);
  std::call_once(m.base_trained, [&] { m.base = TrainBase(order); });
  return *m.base;
}

const NgramLm& LmZoo::Codes(int order) const {
  OrderModels& m = At(order);
  std::call_once(m.codes_trained, [&] {
    // Incremental pre-training continues from the base model's counts.
    std::unique_ptr<NgramLm> lm = TrainBase(order);
    CorpusSlices slices = BuildPretrainCorpus(scale_, seed_ ^ 0xABCDEF);
    lm->Train(slices.sql_related, /*epochs=*/2);
    lm->Train(slices.nl_related, /*epochs=*/1);
    lm->Train(slices.nl_to_code, /*epochs=*/1);
    m.codes = std::move(lm);
  });
  return *m.codes;
}

const NgramLm* LmZoo::BaseFor(ModelSize size) const {
  return &Base(ProfileFor(size).ngram_order);
}

const NgramLm* LmZoo::CodesFor(ModelSize size) const {
  return &Codes(ProfileFor(size).ngram_order);
}

std::vector<BaselineSpec> Table4Baselines() {
  return {
      {"StarCoderBase-1B", ModelSize::k1B, false, 0.00},
      {"StarCoderBase-3B", ModelSize::k3B, false, 0.00},
      {"CodeGen-mono-6B", ModelSize::k7B, false, 0.30},
      {"StarCoderBase-7B", ModelSize::k7B, false, 0.00},
      {"CodeGen2-7B", ModelSize::k7B, false, 0.26},
      {"Llama2-7B", ModelSize::k7B, false, 0.42},
      {"Llama2-13B", ModelSize::k15B, false, 0.36},
      {"StarCoderBase-15B", ModelSize::k15B, false, 0.00},
      {"StarCoder-15B", ModelSize::k15B, false, 0.00},
      {"StarCoderPlus-15B", ModelSize::k15B, false, 0.08},
      {"CodeGen-mono-16B", ModelSize::k15B, false, 0.28},
      {"CodeGen2-16B", ModelSize::k15B, false, 0.24},
      {"CodeS-1B", ModelSize::k1B, true, 0.00},
      {"CodeS-3B", ModelSize::k3B, true, 0.00},
      {"CodeS-7B", ModelSize::k7B, true, 0.00},
      {"CodeS-15B", ModelSize::k15B, true, 0.00},
  };
}

}  // namespace codes
