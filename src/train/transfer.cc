#include "train/transfer.h"

#include "nn/optim.h"
#include "nn/ops.h"
#include "util/check.h"
#include "util/logging.h"

namespace bigcity::train {

void TransferBackbone(core::BigCityModel* source,
                      core::BigCityModel* target) {
  BIGCITY_CHECK(source != nullptr && target != nullptr);
  // Both backbones must share architecture and (instruction) vocabulary.
  target->backbone()->CopyStateFrom(*source->backbone());
  // Freeze the transferred backbone entirely (base AND adapters): the
  // target city adapts through its tokenizer MLP + heads only.
  for (auto& p : target->backbone()->Parameters()) {
    p.set_requires_grad(false);
  }
  target->tokenizer()->FreezeAllButTemporalMlp();
}

void FineTuneTransferred(core::BigCityModel* target, TrainConfig config) {
  // Reuse the stage-2 sample construction / losses, but with the restricted
  // trainable set (tokenizer temporal MLP + heads) — Trainer::RunStage2
  // would re-freeze the tokenizer, so run the loop here.
  Trainer trainer(target, config);
  nn::Adam optimizer(target->TrainableParameters(), config.lr_stage2);
  for (int epoch = 0; epoch < config.stage2_epochs; ++epoch) {
    auto samples = trainer.BuildTaskSamples();
    float epoch_loss = 0;
    int batches = 0;
    for (size_t begin = 0; begin < samples.size();
         begin += static_cast<size_t>(config.batch_size)) {
      optimizer.ZeroGrad();
      nn::Tensor batch_loss;
      const size_t end = std::min(
          samples.size(), begin + static_cast<size_t>(config.batch_size));
      for (size_t s = begin; s < end; ++s) {
        nn::Tensor loss = trainer.TaskLoss(samples[s]);
        batch_loss = batch_loss.is_valid() ? nn::Add(batch_loss, loss) : loss;
      }
      batch_loss = nn::Scale(batch_loss,
                             1.0f / static_cast<float>(end - begin));
      epoch_loss += batch_loss.item();
      ++batches;
      batch_loss.Backward();
      optimizer.ClipGradNorm(config.clip_norm);
      optimizer.Step();
      // TransferBackbone froze the spatial path: the library is kept.
      target->EndStep();
    }
    if (config.verbose) {
      BIGCITY_LOG(Info) << "transfer fine-tune epoch " << epoch << " loss "
                        << (batches > 0 ? epoch_loss / batches : 0.0f);
    }
  }
  target->BeginStep();
}

}  // namespace bigcity::train
