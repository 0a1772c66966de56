#include "attacks/latent.h"

#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace usb {
namespace {

BadNetConfig stamper_config(const LatentBackdoorConfig& config) {
  BadNetConfig bad;
  bad.trigger_size = config.trigger_size;
  bad.target_class = config.target_class;
  bad.poison_rate = config.poison_rate;
  bad.seed = config.seed;
  return bad;
}

}  // namespace

LatentBackdoor::LatentBackdoor(LatentBackdoorConfig config, const DatasetSpec& spec)
    : config_(config), stamper_(stamper_config(config), spec) {}

Tensor LatentBackdoor::apply_trigger(const Tensor& images) {
  return stamper_.apply_trigger(images);
}

TrainResult LatentBackdoor::train_backdoored(Network& network, const Dataset& clean_train,
                                             const TrainConfig& config) {
  // Phase A: normal training for roughly half the budget.
  TrainConfig phase_a = config;
  phase_a.epochs = std::max<std::int64_t>(1, config.epochs / 2);
  TrainResult result = train_network(network, clean_train, phase_a);

  // Record the target class's latent centroid on the phase-A model.
  network.set_training(false);
  TensorArena arena;
  Tensor centroid;
  {
    std::vector<std::int64_t> target_rows;
    for (std::int64_t i = 0; i < clean_train.size(); ++i) {
      if (clean_train.label(i) == config_.target_class) target_rows.push_back(i);
      if (target_rows.size() >= 128) break;
    }
    const Tensor images = clean_train.gather_images(target_rows);
    const Tensor& features = network.forward_features(images, arena);
    const std::int64_t feat_dim = features.numel() / features.dim(0);
    centroid = Tensor(Shape{1, feat_dim});
    for (std::int64_t n = 0; n < features.dim(0); ++n) {
      for (std::int64_t j = 0; j < feat_dim; ++j) centroid[j] += features[n * feat_dim + j];
    }
    centroid *= 1.0F / static_cast<float>(features.dim(0));
  }

  // Phase B: joint clean CE + poisoned CE-to-target + latent alignment.
  network.set_training(true);
  SgdConfig sgd_config;
  sgd_config.lr = config.lr * 0.3F;  // fine-tuning rate
  sgd_config.momentum = config.momentum;
  sgd_config.weight_decay = config.weight_decay;
  Sgd optimizer(network.parameters(), sgd_config);
  SoftmaxCrossEntropy clean_loss;
  TargetedCrossEntropy poison_loss;
  MeanSquaredError alignment;

  const std::int64_t phase_b_epochs = std::max<std::int64_t>(1, config.epochs - phase_a.epochs);
  DataLoader loader(clean_train, config.batch_size, /*shuffle=*/true,
                    hash_combine(config.seed, 0x1a7e47ULL));
  Rng poison_rng(hash_combine(config.seed, 0xbdULL));

  for (std::int64_t epoch = 0; epoch < phase_b_epochs; ++epoch) {
    loader.new_epoch();
    Batch batch;
    while (loader.next(batch)) {
      arena.reset();
      // Clean objective.
      optimizer.zero_grad();
      const Tensor& logits = network.forward_into(batch.images, arena);
      result.final_train_loss = clean_loss.forward(logits, batch.labels);
      (void)network.backward_into(clean_loss.backward_into(arena), arena);

      // Poisoned objective on a random sub-batch.
      const auto poison_count = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(config_.poison_rate *
                                       static_cast<double>(batch.labels.size())));
      std::vector<std::int64_t> rows(static_cast<std::size_t>(batch.images.dim(0)));
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<std::int64_t>(i);
      poison_rng.shuffle(std::span<std::int64_t>(rows));
      rows.resize(static_cast<std::size_t>(poison_count));

      Tensor poisoned(Shape{poison_count, batch.images.dim(1), batch.images.dim(2),
                            batch.images.dim(3)});
      const std::int64_t numel = batch.images.numel() / batch.images.dim(0);
      for (std::int64_t i = 0; i < poison_count; ++i) {
        std::copy_n(batch.images.raw() + rows[static_cast<std::size_t>(i)] * numel, numel,
                    poisoned.raw() + i * numel);
      }
      poisoned = stamper_.apply_trigger(poisoned);

      const Tensor& features = network.forward_features(poisoned, arena);
      const std::int64_t feat_dim = features.numel() / poison_count;
      const Tensor flat_features = features.reshaped(Shape{poison_count, feat_dim});
      const Tensor& poisoned_logits = network.forward_head(features, arena);

      (void)poison_loss.forward(poisoned_logits, config_.target_class);
      Tensor& dfeat = network.backward_head(poison_loss.backward_into(arena), arena);

      // Latent alignment: pull triggered features onto the target centroid.
      Tensor centroid_batch(Shape{poison_count, feat_dim});
      for (std::int64_t i = 0; i < poison_count; ++i) {
        std::copy_n(centroid.raw(), feat_dim, centroid_batch.raw() + i * feat_dim);
      }
      (void)alignment.forward(flat_features, centroid_batch);
      const Tensor dalign = alignment.backward().reshaped(features.shape());
      dfeat.add_scaled(dalign, config_.alignment_weight);
      (void)network.backward_features(dfeat, arena);

      optimizer.step();
      ++result.steps;
    }
  }
  network.set_training(false);
  return result;
}

}  // namespace usb
