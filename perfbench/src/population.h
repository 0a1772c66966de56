// The model population a workload scans: one BadNet victim and one clean
// model of the same architecture, trained and saved into the run's private
// model cache. The population is part of the workload's definition, trained
// from a fixed seed every run (so set-up is the same work every run); a
// run's --seed draws only the order of its scans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"

namespace perfbench {

struct PopulationSpec {
  usb::DatasetSpec dataset;
  usb::Architecture arch = usb::Architecture::kMiniResNet;
  std::int64_t trigger_size = 4;
  double poison_rate = 0.10;
  std::int64_t train_size = 800;
  std::int64_t test_size = 300;
  std::int64_t epochs = 4;
  std::int64_t batch_size = 32;
  /// Setup fails when the victim's attack success rate is below this: a
  /// backdoor that did not take would make every verdict check meaningless.
  double min_asr = 0.8;
  /// Root of every training seed: data, weight init, trigger, target class.
  std::uint64_t seed = 1;
};

struct Member {
  std::string label;  // "badnet" or "clean"
  bool backdoored = false;
  std::int64_t target_class = 0;
  std::string checkpoint;  // absolute path of the saved checkpoint
  usb::Network network;
  float accuracy = 0.0F;
  float asr = 0.0F;
};

/// Trains the population and checkpoints it into `cache_dir`. The work
/// depends only on the spec, so every call costs the same. Throws when the
/// backdoor did not take.
[[nodiscard]] std::vector<Member> train_population(const PopulationSpec& spec,
                                                   const std::string& cache_dir);

/// The population each workload scans (usb-resnet-1t: MiniResNet on
/// CIFAR-like data; fleet-mixed-open: small BasicCnn models on MNIST-like
/// data, so per-call overhead and queueing weigh more than kernels); throws
/// on an unknown name.
[[nodiscard]] PopulationSpec population_for(const std::string& workload);

/// Compute threads of the setup child. Fixed, because the trained weights
/// depend on it; one, because training gains little from more here and a
/// parallel loop stalls on whichever core the host slows.
inline constexpr int kTrainThreads = 1;

/// Setup: trains the workload's population into `cache_dir` in a child
/// process running this executable with `--train-into` on kTrainThreads
/// threads, then loads it here.
[[nodiscard]] std::vector<Member> train_in_child(const std::string& workload,
                                                 const std::string& cache_dir);

}  // namespace perfbench
