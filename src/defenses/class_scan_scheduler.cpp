#include "defenses/class_scan_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "defenses/masked_trigger.h"
#include "tensor/arena.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace usb {

double early_exit_cutoff(std::span<const double> norms, double margin) {
  std::vector<double> finite;
  finite.reserve(norms.size());
  for (const double norm : norms) {
    if (std::isfinite(norm)) finite.push_back(norm);
  }
  if (finite.empty()) return std::numeric_limits<double>::infinity();
  const double med = median(finite);
  std::vector<double> deviations(finite.size());
  for (std::size_t i = 0; i < finite.size(); ++i) deviations[i] = std::abs(finite[i] - med);
  return med + margin * 1.4826 * median(deviations);
}

const ProbeBatchCache* select_scan_probe_cache(const ClassScanOptions& options,
                                               const Dataset& probe, ProbeBatchCache& local) {
  if (options.external_probe_cache != nullptr &&
      options.external_probe_cache->batch_size() == options.eval_batch_size &&
      options.external_probe_cache->total_samples() == probe.size()) {
    return options.external_probe_cache;
  }
  local = ProbeBatchCache(probe, options.eval_batch_size);
  return &local;
}

std::uint64_t ClassScanScheduler::class_stream_seed(std::uint64_t base_seed,
                                                    std::int64_t target_class) noexcept {
  return hash_combine(base_seed, 0xc1a55'57e4ULL, static_cast<std::uint64_t>(target_class));
}

ProbeBatchCache ClassScanScheduler::make_cache(const Dataset& probe) const {
  return ProbeBatchCache(probe, options_.eval_batch_size);
}

ClassScanJob ClassScanScheduler::make_job(std::int64_t target_class,
                                          const ProbeBatchCache& cache,
                                          const ScanSharedState* shared) const noexcept {
  ClassScanJob job;
  job.target_class = target_class;
  job.rng_seed = class_stream_seed(options_.base_seed, target_class);
  job.probe_cache = &cache;
  job.shared = shared;
  return job;
}

DetectionReport ClassScanScheduler::finish(DetectionReport report, double wall_seconds) const {
  const std::size_t num_classes = report.per_class.size();
  // Re-grade finalized classes whose statistics diverged: a non-finite
  // mask-L1 or fooling rate is the quarantine condition everywhere.
  // Ordered reduction: norms enter the MAD stage in class order. A class
  // that did not finalize feeds a NaN, which decide_backdoor_peeled peels
  // out of the median/MAD population; with every class finalized and finite
  // this is decide_backdoor verbatim.
  std::vector<double> norms(num_classes);
  for (std::size_t t = 0; t < num_classes; ++t) {
    if (report.per_class_state[t] == ClassScanState::kFinalized &&
        !(std::isfinite(report.per_class[t].mask_l1) &&
          std::isfinite(report.per_class[t].fooling_rate))) {
      report.per_class_state[t] = ClassScanState::kNumericallyUnstable;
    }
    norms[t] = report.per_class_state[t] == ClassScanState::kFinalized
                   ? report.per_class[t].mask_l1
                   : std::numeric_limits<double>::quiet_NaN();
  }
  report.verdict = decide_backdoor_peeled(norms, options_.mad_threshold);
  report.wall_seconds = wall_seconds;
  return report;
}

TriggerEstimate finalize_estimate(Network& model, const ClassScanJob& job,
                                  const MaskedTrigger& trigger, float last_loss,
                                  TensorArena* arena) {
  TriggerEstimate estimate;
  estimate.target_class = job.target_class;
  estimate.pattern = trigger.pattern();
  estimate.mask = trigger.mask();
  estimate.mask_l1 = trigger.mask_l1();
  estimate.final_loss = last_loss;
  estimate.fooling_rate = fooling_rate(model, *job.probe_cache, trigger, job.target_class, arena);
  return estimate;
}

double fooling_rate(Network& model, const ProbeBatchCache& cache, const MaskedTrigger& trigger,
                    std::int64_t target_class, TensorArena* arena) {
  // Eval batches are usually a different size than refine batches, so the
  // first evaluation on a task's arena still grows slots; every later one
  // reuses them.
  TensorArena private_arena;
  TensorArena& slots = arena != nullptr ? *arena : private_arena;
  std::int64_t hits = 0;
  for (const Batch& batch : cache.batches()) {
    const TensorArena::Scope scope(slots);
    const Tensor& logits = model.forward_into(trigger.apply_into(batch.images, slots), slots);
    for (const std::int64_t pred : argmax_rows(logits)) {
      if (pred == target_class) ++hits;
    }
  }
  return cache.total_samples() == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(cache.total_samples());
}

}  // namespace usb
