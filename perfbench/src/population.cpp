#include "population.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "attacks/badnet.h"
#include "data/synthetic.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "utils/rng.h"

namespace perfbench {

namespace {

/// Root of the population's seed streams.
std::uint64_t population_root(const PopulationSpec& spec) {
  return usb::hash_combine(spec.seed, 0x9091ULL);
}

std::int64_t victim_target(const PopulationSpec& spec, std::uint64_t root) {
  return static_cast<std::int64_t>(usb::hash_combine(root, 3) %
                                   static_cast<std::uint64_t>(spec.dataset.num_classes));
}

std::string checkpoint_path(const std::string& cache_dir, const std::string& label) {
  return std::filesystem::absolute(cache_dir + "/" + label + ".ckpt").string();
}

/// Runs `argv` (argv[0] a path) with USB_THREADS set to `threads`, waits for
/// it, and throws when it does not exit 0. Setup trains in such a child so
/// that training runs at its own width while the measuring process keeps the
/// workload's own pinned width.
void run_child(const std::vector<std::string>& argv, int threads) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "USB_THREADS=", 12) != 0) env_strings.emplace_back(*e);
  }
  env_strings.push_back("USB_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& entry : env_strings) envp.push_back(entry.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> raw;
  for (std::string& arg : args) raw.push_back(arg.data());
  raw.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, raw[0], nullptr, nullptr, raw.data(), envp.data()) != 0) {
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv[0] + " failed (status " + std::to_string(status) + ")");
  }
}

/// Loads the population train_population() saved into `cache_dir`.
std::vector<Member> load_population(const PopulationSpec& spec, const std::string& cache_dir) {
  const std::uint64_t root = population_root(spec);
  std::vector<Member> members;
  for (const bool backdoored : {true, false}) {
    const std::string label = backdoored ? "badnet" : "clean";
    const std::string path = checkpoint_path(cache_dir, label);
    members.push_back(Member{label, backdoored, victim_target(spec, root), path,
                             usb::load_checkpoint(path), 0.0F, 0.0F});
  }
  return members;
}

}  // namespace

PopulationSpec population_for(const std::string& workload) {
  PopulationSpec spec;
  if (workload == "usb-resnet-1t") {
    spec.dataset = usb::DatasetSpec::cifar10_like();
    spec.arch = usb::Architecture::kMiniResNet;
    spec.trigger_size = 5;
    spec.poison_rate = 0.15;
    spec.train_size = 600;
    spec.epochs = 4;
  } else if (workload == "fleet-mixed-open") {
    spec.dataset = usb::DatasetSpec::mnist_like();
    spec.arch = usb::Architecture::kBasicCnn;
    spec.trigger_size = 4;
    spec.poison_rate = 0.15;
    spec.train_size = 1200;
    spec.epochs = 4;
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  return spec;
}

std::vector<Member> train_in_child(const std::string& workload, const std::string& cache_dir) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  run_child({self, "--workload", workload, "--train-into", cache_dir}, kTrainThreads);
  return load_population(population_for(workload), cache_dir);
}

std::vector<Member> train_population(const PopulationSpec& spec, const std::string& cache_dir) {
  const std::uint64_t root = population_root(spec);
  const usb::Dataset train_set =
      usb::generate_dataset(spec.dataset, spec.train_size, usb::hash_combine(root, 1));
  const usb::Dataset test_set =
      usb::generate_dataset(spec.dataset, spec.test_size, usb::hash_combine(root, 2));
  usb::TrainConfig train_config;
  train_config.epochs = spec.epochs;
  train_config.batch_size = spec.batch_size;
  const auto save = [&](const std::string& label, bool backdoored, usb::Network network,
                        float asr) {
    const float accuracy = usb::evaluate_accuracy(network, test_set);
    const std::string path = checkpoint_path(cache_dir, label);
    usb::save_checkpoint(network, path);
    return Member{label, backdoored, victim_target(spec, root), path, std::move(network),
                  accuracy, asr};
  };

  usb::BadNetConfig attack_config;
  attack_config.trigger_size = spec.trigger_size;
  attack_config.poison_rate = spec.poison_rate;
  attack_config.target_class = victim_target(spec, root);
  attack_config.seed = usb::hash_combine(root, 4);
  usb::BadNet attack(attack_config, spec.dataset);
  usb::Network victim =
      usb::make_network(spec.arch, spec.dataset.channels, spec.dataset.image_size,
                        spec.dataset.num_classes, usb::hash_combine(root, 10));
  train_config.seed = usb::hash_combine(root, 11);
  (void)attack.train_backdoored(victim, train_set, train_config);
  const float asr = attack.success_rate(victim, test_set);
  if (asr < spec.min_asr) {
    throw std::runtime_error("setup: backdoor did not take (ASR " + std::to_string(asr) +
                             " < " + std::to_string(spec.min_asr) + ")");
  }
  std::vector<Member> members;
  members.push_back(save("badnet", true, std::move(victim), asr));
  usb::Network clean =
      usb::make_network(spec.arch, spec.dataset.channels, spec.dataset.image_size,
                        spec.dataset.num_classes, usb::hash_combine(root, 20));
  train_config.seed = usb::hash_combine(root, 21);
  (void)usb::train_network(clean, train_set, train_config);
  members.push_back(save("clean", false, std::move(clean), 0.0F));
  return members;
}

}  // namespace perfbench
