#include "defenses/scan_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "nn/checkpoint.h"
#include "utils/fault_injection.h"
#include "utils/memory_budget.h"

namespace usb {

StagedScan::StagedScan(ScanPlan plan, Network& model, const Dataset& probe)
    : StagedScan(std::move(plan), &model, nullptr, probe) {}

StagedScan::StagedScan(ScanPlan plan, std::shared_ptr<const Network> model, const Dataset& probe)
    : StagedScan(std::move(plan), nullptr, std::move(model), probe) {}

StagedScan::StagedScan(ScanPlan plan, Network* model, std::shared_ptr<const Network> shared,
                       const Dataset& probe)
    : plan_(std::move(plan)),
      scheduler_(plan_.options),
      model_(model),
      shared_model_(std::move(shared)),
      probe_(&probe),
      num_classes_(probe.spec().num_classes),
      round_steps_(plan_.options.early_exit.round_steps > 0
                       ? plan_.options.early_exit.round_steps
                       : std::max<std::int64_t>(1, (plan_.total_steps + 5) / 6)) {
  const auto slots = static_cast<std::size_t>(num_classes_);
  clones_.resize(slots);
  tasks_.resize(slots);
  remaining_.assign(slots, std::max<std::int64_t>(0, plan_.total_steps));
  report_.method = plan_.method;
  report_.per_class.resize(slots);
  report_.per_class_seconds.assign(slots, 0.0);
  // kPending until construct_class: a deadline or fault can end the scan at
  // any stage boundary, and the partial report must say how far each class
  // got (take_report handles every state).
  report_.per_class_state.assign(slots, ClassScanState::kPending);
  clone_budget_bytes_.assign(slots, 0);
}

StagedScan::~StagedScan() {
  std::int64_t registered = 0;
  for (const std::int64_t bytes : clone_budget_bytes_) registered += bytes;
  if (registered > 0) {
    MemoryBudget::process().release(MemoryBudget::Category::kModelClones, registered);
  }
}

void StagedScan::release_class(std::size_t slot) {
  tasks_[slot].reset();  // borrows the clone: goes first
  clones_[slot].reset();
  if (clone_budget_bytes_[slot] > 0) {
    MemoryBudget::process().release(MemoryBudget::Category::kModelClones,
                                    clone_budget_bytes_[slot]);
    clone_budget_bytes_[slot] = 0;
  }
}

void StagedScan::prepare() {
  USB_FAULT_POINT("scan.prepare");
  eval_cache_ = select_scan_probe_cache(plan_.options, *probe_, local_cache_);
  if (plan_.shared_builder) {
    if (model_ != nullptr) {
      shared_ = plan_.shared_builder(*model_, *probe_);
    } else {
      // Shared-model mode: the builder runs forward/backward on its model
      // argument, which mutates per-instance forward caches — illegal on an
      // immutable instance other scans read concurrently. Build on a private
      // clone instead; the prefix (tensors only, no model references)
      // outlives it. Bit-identical: eval-mode forward/backward are pure
      // functions of (weights, input) and the clone copies every state
      // tensor.
      Network scratch = clone_network(*shared_model_);
      shared_ = plan_.shared_builder(scratch, *probe_);
    }
  }
}

void StagedScan::construct_class(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  USB_FAULT_POINT("scan.clone");
  clones_[slot] = std::make_unique<Network>(clone_network(reference()));
  // Budget the clone. A retried construct re-clones into the same slot:
  // release the stale registration first so the slot counts once.
  if (clone_budget_bytes_[slot] > 0) {
    MemoryBudget::process().release(MemoryBudget::Category::kModelClones,
                                    clone_budget_bytes_[slot]);
  }
  clone_budget_bytes_[slot] = network_resident_bytes(*clones_[slot]);
  MemoryBudget::process().add(MemoryBudget::Category::kModelClones, clone_budget_bytes_[slot]);
  const Timer timer;
  USB_FAULT_POINT("scan.construct");
  tasks_[slot] = plan_.make_task(*clones_[slot], *probe_,
                                 scheduler_.make_job(target_class, *eval_cache_, shared_.get()));
  report_.per_class_seconds[slot] += timer.seconds();
  report_.per_class_state[slot] = ClassScanState::kRefining;
}

bool StagedScan::run_round(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  USB_FAULT_POINT("scan.round");
  const Timer timer;
  const std::int64_t steps = std::min(round_steps_, remaining_[slot]);
  const std::int64_t ran = tasks_[slot]->run_steps(steps);
  // Fewer than requested means the loop's own exit condition fired; the
  // class is done either way.
  remaining_[slot] = ran < steps ? 0 : remaining_[slot] - ran;
  report_.per_class_seconds[slot] += timer.seconds();
  // Numerical quarantine at the round boundary: a diverged statistic
  // zeroes the budget and excludes the class from every later cutoff and
  // from the verdict.
  double stat_now = tasks_[slot]->current_mask_l1();
  if (USB_FAULT_NAN("scan.round_stat")) stat_now = std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(stat_now)) {
    report_.per_class_state[slot] = ClassScanState::kNumericallyUnstable;
    remaining_[slot] = 0;
    notify(target_class, ClassScanEvent::kQuarantined, stat_now);
  }
  return remaining_[slot] > 0;
}

bool StagedScan::has_budget(std::int64_t target_class) const {
  return remaining_[static_cast<std::size_t>(target_class)] > 0;
}

double StagedScan::stat(std::int64_t target_class) const {
  const auto slot = static_cast<std::size_t>(target_class);
  if (report_.per_class_state[slot] == ClassScanState::kNumericallyUnstable) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (tasks_[slot] == nullptr) {
    throw std::logic_error("StagedScan::stat: class not constructed or already finalized");
  }
  return tasks_[slot]->current_mask_l1();
}

double StagedScan::mad_cutoff() const {
  USB_FAULT_POINT("scan.cutoff");
  // Current statistics of ALL classes (stopped ones hold their frozen
  // value), in class order — the same population the final MAD rule sees.
  // Quarantined classes read NaN (stat()) and are peeled by the shared
  // cutoff helper.
  std::vector<double> norms(static_cast<std::size_t>(num_classes_));
  for (std::int64_t t = 0; t < num_classes_; ++t) {
    norms[static_cast<std::size_t>(t)] = stat(t);
  }
  return early_exit_cutoff(norms, plan_.options.early_exit.margin);
}

void StagedScan::retire_class(std::int64_t target_class) {
  USB_FAULT_POINT("scan.retire");
  remaining_[static_cast<std::size_t>(target_class)] = 0;
  notify(target_class, ClassScanEvent::kRetired, stat(target_class));
}

void StagedScan::finalize_class(std::int64_t target_class) {
  const auto slot = static_cast<std::size_t>(target_class);
  if (report_.per_class_state[slot] == ClassScanState::kNumericallyUnstable) {
    // Quarantined: no fooling-rate evaluation, no kFinalized event — the
    // class ends with a NaN statistic, peeled from the verdict.
    report_.per_class[slot].target_class = target_class;
    report_.per_class[slot].mask_l1 = std::numeric_limits<double>::quiet_NaN();
    release_class(slot);
    return;
  }
  USB_FAULT_POINT("scan.finalize");
  const Timer timer;
  report_.per_class[slot] = tasks_[slot]->finalize();
  report_.per_class_seconds[slot] += timer.seconds();
  report_.per_class_state[slot] = ClassScanState::kFinalized;
  release_class(slot);
  notify(target_class, ClassScanEvent::kFinalized, report_.per_class[slot].mask_l1);
}

DetectionReport StagedScan::take_report() {
  // Partial scans (deadline expiry) reach here with kPending/kRefining
  // classes; stamp their slots so the report is legible without estimates.
  for (std::int64_t t = 0; t < num_classes_; ++t) {
    const auto slot = static_cast<std::size_t>(t);
    if (report_.per_class_state[slot] == ClassScanState::kPending ||
        report_.per_class_state[slot] == ClassScanState::kRefining) {
      report_.per_class[slot].target_class = t;
    }
  }
  return scheduler_.finish(std::move(report_), wall_.seconds());
}

void StagedScan::notify(std::int64_t target_class, ClassScanEvent event, double mask_l1) const {
  if (plan_.options.progress) plan_.options.progress(target_class, event, mask_l1);
}

ScanSchedule::ScanSchedule(StagedScan& scan)
    : scan_(scan),
      num_classes_(scan.num_classes()),
      sync_(scan.early_exit().enabled && !scan.early_exit().async),
      async_(scan.early_exit().enabled && scan.early_exit().async),
      cutoffs_done_(!scan.early_exit().enabled),
      rendezvous_left_(async_ ? static_cast<std::size_t>(num_classes_) : 0,
                       std::max<std::int64_t>(1, scan.early_exit().min_rounds)) {}

const char* ScanSchedule::label(ScanStage::Kind kind) noexcept {
  switch (kind) {
    case ScanStage::Kind::kConstruct: return "scan.construct";
    case ScanStage::Kind::kRound: return "scan.round";
    case ScanStage::Kind::kCutoff: return "scan.cutoff";
    case ScanStage::Kind::kRetire: return "scan.retire";
    case ScanStage::Kind::kFinalize: return "scan.finalize";
  }
  return "scan.stage";
}

std::vector<ScanStage> ScanSchedule::start() {
  std::vector<ScanStage> next;
  next.reserve(static_cast<std::size_t>(num_classes_));
  for (std::int64_t t = 0; t < num_classes_; ++t) {
    next.push_back({ScanStage::Kind::kConstruct, t});
  }
  return next;
}

void ScanSchedule::execute(const ScanStage& stage) {
  const std::int64_t t = stage.target_class;
  switch (stage.kind) {
    case ScanStage::Kind::kConstruct: scan_.construct_class(t); break;
    case ScanStage::Kind::kRound: (void)scan_.run_round(t); break;
    case ScanStage::Kind::kCutoff: cutoff_ = scan_.mad_cutoff(); break;
    case ScanStage::Kind::kRetire: scan_.retire_class(t); break;
    case ScanStage::Kind::kFinalize: scan_.finalize_class(t); break;
  }
}

std::vector<ScanStage> ScanSchedule::complete(const ScanStage& stage) {
  std::vector<ScanStage> next;
  const std::int64_t t = stage.target_class;
  switch (stage.kind) {
    case ScanStage::Kind::kConstruct:
      if (!sync_) {
        advance(t, next);
      } else if (++constructed_ == num_classes_) {
        // Lockstep rounds start once every class is constructed.
        for (std::int64_t u = 0; u < num_classes_; ++u) {
          if (scan_.has_budget(u)) {
            active_.push_back(u);
          } else {
            stop_refining(u, next);
          }
        }
        emit_rounds(next);
      }
      break;
    case ScanStage::Kind::kRound:
      if (!sync_) {
        advance(t, next);
      } else if (--in_flight_ == 0) {
        barrier(next);
      }
      break;
    case ScanStage::Kind::kCutoff:
      if (sync_) {
        // Every class of the round is at the barrier: read their statistics
        // and retire the outliers; the rest run the next round.
        std::vector<std::int64_t> survivors;
        for (const std::int64_t u : active_) {
          if (scan_.stat(u) > cutoff_) {
            next.push_back({ScanStage::Kind::kRetire, u});
            ++in_flight_;
          } else {
            survivors.push_back(u);
          }
        }
        active_ = std::move(survivors);
        emit_rounds(next);
      } else {
        // The one async cutoff is fixed: nothing reads a stopped class any
        // more, and each waiting class now runs against the cutoff alone.
        release(next);
        for (const std::int64_t u : waiting_) advance(u, next);
        waiting_.clear();
      }
      break;
    case ScanStage::Kind::kRetire:
      stop_refining(t, next);
      if (sync_ && --in_flight_ == 0) barrier(next);
      break;
    case ScanStage::Kind::kFinalize:
      ++finalized_;
      break;
  }
  return next;
}

void ScanSchedule::advance(std::int64_t t, std::vector<ScanStage>& next) {
  if (async_ && !cutoffs_done_) {
    // Rendezvous rounds need no other class; the cutoff waits for all K.
    std::int64_t& left = rendezvous_left_[static_cast<std::size_t>(t)];
    if (scan_.has_budget(t) && left > 0) {
      --left;
      next.push_back({ScanStage::Kind::kRound, t});
    } else {
      arrive(t, next);
    }
    return;
  }
  if (!scan_.has_budget(t)) {
    stop_refining(t, next);
  } else if (async_ && scan_.stat(t) > cutoff_) {
    // Cutoff first, before spending another round.
    next.push_back({ScanStage::Kind::kRetire, t});
  } else {
    next.push_back({ScanStage::Kind::kRound, t});
  }
}

void ScanSchedule::arrive(std::int64_t t, std::vector<ScanStage>& next) {
  ++arrived_;
  if (scan_.has_budget(t)) {
    waiting_.push_back(t);
  } else {
    stop_refining(t, next);
  }
  if (arrived_ < num_classes_) return;
  if (waiting_.empty()) {
    release(next);  // no class would read the cutoff
  } else {
    next.push_back({ScanStage::Kind::kCutoff, -1});
  }
}

void ScanSchedule::barrier(std::vector<ScanStage>& next) {
  ++rounds_done_;
  std::vector<std::int64_t> survivors;
  for (const std::int64_t u : active_) {
    if (scan_.has_budget(u)) {
      survivors.push_back(u);
    } else {
      stop_refining(u, next);
    }
  }
  active_ = std::move(survivors);
  if (!active_.empty() && rounds_done_ >= scan_.early_exit().min_rounds) {
    next.push_back({ScanStage::Kind::kCutoff, -1});
  } else {
    emit_rounds(next);
  }
}

void ScanSchedule::emit_rounds(std::vector<ScanStage>& next) {
  for (const std::int64_t u : active_) next.push_back({ScanStage::Kind::kRound, u});
  in_flight_ += static_cast<std::int64_t>(active_.size());
  if (in_flight_ == 0) release(next);  // nothing left to refine: no more cutoffs
}

void ScanSchedule::stop_refining(std::int64_t t, std::vector<ScanStage>& next) {
  if (cutoffs_done_) {
    next.push_back({ScanStage::Kind::kFinalize, t});
  } else {
    parked_.push_back(t);  // a later cutoff still reads its statistic
  }
}

void ScanSchedule::release(std::vector<ScanStage>& next) {
  cutoffs_done_ = true;
  for (const std::int64_t t : parked_) next.push_back({ScanStage::Kind::kFinalize, t});
  parked_.clear();
}

DetectionReport run_scan_plan(const ScanPlan& plan, Network& model, const Dataset& probe) {
  ThreadPool& pool = plan.options.pool != nullptr ? *plan.options.pool : ThreadPool::global();
  StagedScan scan(plan, model, probe);
  scan.prepare();
  ScanSchedule schedule(scan);
  std::mutex completion;  // serialises ScanSchedule::complete
  std::vector<ScanStage> wave = schedule.start();
  while (!wave.empty()) {
    std::vector<ScanStage> next;
    pool.parallel_for(static_cast<std::int64_t>(wave.size()),
                      [&](std::int64_t begin, std::int64_t end, int /*worker*/) {
                        for (std::int64_t i = begin; i < end; ++i) {
                          ScanStage stage = wave[static_cast<std::size_t>(i)];
                          for (;;) {
                            schedule.execute(stage);
                            const std::lock_guard<std::mutex> lock(completion);
                            std::vector<ScanStage> successors = schedule.complete(stage);
                            if (successors.size() == 1 &&
                                successors[0].target_class == stage.target_class) {
                              stage = successors[0];  // stays on this worker
                              continue;
                            }
                            next.insert(next.end(), successors.begin(), successors.end());
                            break;
                          }
                        }
                      });
    wave = std::move(next);
  }
  return scan.take_report();
}

}  // namespace usb
