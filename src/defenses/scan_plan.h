// A detector's scan, reified, and the one schedule that runs it.
//
// Detector::plan() packages everything a scan needs — the per-class
// resumable-task factory, the optional shared-prefix builder, and the
// scheduler options derived from the detector's config — without binding a
// model, a probe set, a pool, or a schedule. StagedScan binds a plan to a
// model and probe and exposes the scan's stage bodies; ScanSchedule is the
// state machine that decides which stage follows which (monolithic,
// per-round barrier, or async rendezvous). Two executors drive that one
// machine:
//
//  - Detector::detect(): run_scan_plan(plan(), model, probe) — prepare on
//    the calling thread, class stages on the scan pool;
//  - DetectionService: copies the plan, overrides options (ProbeStore-shared
//    probe cache, progress callback, request-level early-exit /
//    async-retirement settings) and posts every stage the machine emits as
//    one item on the service's global cross-request class-job scheduler
//    (service/round_scheduler.h).
//
// Both therefore run the same stages in the same logical order, and their
// reports are byte-identical.
//
// The plan's closures borrow the detector that built them; the detector
// must outlive every run of the plan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "defenses/class_scan_scheduler.h"
#include "defenses/detector.h"
#include "utils/timer.h"

namespace usb {

struct ScanPlan {
  std::string method;
  ClassScanOptions options;
  /// Full refinement budget per class (total run_steps of one task).
  std::int64_t total_steps = 0;
  ClassScanScheduler::RefineTaskFn make_task;
  ScanSharedBuilder shared_builder;  // null when the detector shares nothing
};

/// One scan decomposed into its stages. The stage bodies live here; which
/// stage follows which is ScanSchedule's (below):
///
///   prepare()                          once; probe-cache adoption + shared
///                                      prefix on the reference model
///   construct_class(t)                 per class; clone + task ctor
///   run_round(t) / retire_class(t)     the round loop, sliced
///   mad_cutoff()                       the barrier/rendezvous statistic
///   finalize_class(t)                  per class; fooling rate + estimate
///   take_report()                      once; ordered MAD reduce
///
/// Because run_steps slices concatenate bit-identically and every cutoff is
/// taken at a logical point fixed by the schedule's structure (see
/// class_scan_scheduler.h), the report is bit-identical for ANY executor
/// count, pool size, priority assignment, or interleaving with other scans.
///
/// Thread-safety: stages for DISTINCT classes may run concurrently (each
/// touches only its class's clone/task/report slots). prepare(),
/// mad_cutoff(), and take_report() require quiescence (no class stage in
/// flight); cross-stage ordering and visibility are the caller's. The model
/// and probe must outlive the StagedScan. finalize_class() releases the
/// class's clone and task, so a class's statistic is readable only until it
/// finalizes — ScanSchedule emits a finalize only after every cutoff that
/// reads the class.
class StagedScan {
 public:
  /// Exclusive-model mode: `model` is this scan's private instance (the
  /// service's submit-time clone, or detect()'s caller-owned model); the
  /// shared-prefix builder may run forward passes directly on it.
  StagedScan(ScanPlan plan, Network& model, const Dataset& probe);
  /// Shared-model mode: `model` is an IMMUTABLE instance shared with other
  /// concurrent scans (a ModelStore resident, pinned by the shared_ptr for
  /// this scan's lifetime). Per-class clones read it race-free
  /// (clone_network takes const&); the shared-prefix builder — whose forward
  /// passes would mutate per-instance forward caches — runs on a private
  /// temporary clone instead. Bit-identical to exclusive mode: forward is a
  /// pure function of (weights, input) and clones copy every state tensor.
  StagedScan(ScanPlan plan, std::shared_ptr<const Network> model, const Dataset& probe);
  /// Releases the clone bytes still registered with MemoryBudget.
  ~StagedScan();

  StagedScan(const StagedScan&) = delete;
  StagedScan& operator=(const StagedScan&) = delete;

  [[nodiscard]] std::int64_t num_classes() const noexcept { return num_classes_; }
  [[nodiscard]] const EarlyExitOptions& early_exit() const noexcept {
    return plan_.options.early_exit;
  }

  /// Adopts or builds the probe cache and runs the detector's shared-prefix
  /// builder on the reference model. Call once, before any other stage.
  void prepare();

  /// Clones the model and constructs class t's resumable task (the whole
  /// pre-refinement pipeline). The per-class clock starts after the clone.
  void construct_class(std::int64_t target_class);

  /// Advances class t by one round (min(round_steps, its remaining
  /// budget)); returns true while budget remains afterwards. A task whose
  /// own exit condition fires mid-round zeroes its budget. A non-finite
  /// statistic after the round quarantines the class.
  bool run_round(std::int64_t target_class);

  [[nodiscard]] bool has_budget(std::int64_t target_class) const;

  /// Current mask-L1 statistic of a constructed, not yet finalized class
  /// (frozen once the class stops running rounds). Cheap, non-mutating. A
  /// quarantined class reads NaN so every cutoff population it feeds peels
  /// it out.
  [[nodiscard]] double stat(std::int64_t target_class) const;

  /// The early-exit cutoff over ALL classes' current statistics in class
  /// order — median + margin * 1.4826 * MAD, the population the final MAD
  /// rule sees. Requires every class constructed, none finalized, and no
  /// class stage in flight.
  [[nodiscard]] double mad_cutoff() const;

  /// Drops class t's remaining budget and emits the kRetired progress
  /// event with its current statistic.
  void retire_class(std::int64_t target_class);

  /// Evaluates class t's fooling rate, assembles its estimate, emits
  /// kFinalized, and releases the class's clone and task. Exactly once per
  /// class, after its last round and after every cutoff that reads it.
  void finalize_class(std::int64_t target_class);

  /// Ordered MAD reduction + wall time. Call once, with no class stage in
  /// flight — normally after every class finalized, but also legal on a
  /// PARTIAL scan (deadline expiry): classes that never finalized keep
  /// their kPending/kRefining state, are peeled out of the verdict, and the
  /// report says so via per_class_state.
  [[nodiscard]] DetectionReport take_report();

 private:
  StagedScan(ScanPlan plan, Network* model, std::shared_ptr<const Network> shared,
             const Dataset& probe);

  void notify(std::int64_t target_class, ClassScanEvent event, double mask_l1) const;
  /// Drops class `slot`'s task and clone and their MemoryBudget bytes.
  void release_class(std::size_t slot);

  /// The read-only reference model: the exclusive instance or the shared
  /// one. Only clone_network() and the (exclusive-mode) prefix build touch
  /// the model; every other stage works on per-class clones.
  [[nodiscard]] const Network& reference() const noexcept {
    return shared_model_ != nullptr ? *shared_model_ : *model_;
  }

  ScanPlan plan_;
  ClassScanScheduler scheduler_;
  Network* model_ = nullptr;                     // exclusive mode
  std::shared_ptr<const Network> shared_model_;  // shared mode (pins the owner)
  const Dataset* probe_;
  std::int64_t num_classes_;
  std::int64_t round_steps_;
  Timer wall_;

  ProbeBatchCache local_cache_;
  const ProbeBatchCache* eval_cache_ = nullptr;
  std::shared_ptr<const ScanSharedState> shared_;
  std::vector<std::unique_ptr<Network>> clones_;
  std::vector<std::unique_ptr<ClassRefineTask>> tasks_;
  std::vector<std::int64_t> remaining_;
  std::vector<std::int64_t> clone_budget_bytes_;  // registered with MemoryBudget
  DetectionReport report_;
};

/// One unit of work ScanSchedule hands its executor.
struct ScanStage {
  enum class Kind : std::uint8_t { kConstruct, kRound, kCutoff, kRetire, kFinalize };
  Kind kind = Kind::kConstruct;
  /// The class the stage works on; -1 for kCutoff, which reads every class.
  std::int64_t target_class = -1;
};

/// The scan's schedule as a state machine over one StagedScan. start()
/// emits the K construct stages (call it after prepare()); the executor
/// runs each emitted stage with execute() and then reports it with
/// complete(), which returns the stages that may run next. Three rules, chosen by the
/// plan's EarlyExitOptions:
///
///  - monolithic (early exit disabled): construct -> rounds until the
///    budget is spent -> finalize, per class; no cross-class flow;
///  - sync barrier: rounds in lockstep once every class is constructed;
///    from round min_rounds on, each barrier takes a cutoff and retires
///    every class whose statistic exceeds it;
///  - async rendezvous: each class runs max(1, min_rounds) rounds (or to
///    exhaustion) and arrives; once all K arrived ONE cutoff is taken, and
///    each class then checks it before every further round.
///
/// A class retires iff stat > cutoff — a NaN cutoff (an infinite margin
/// over a zero MAD) retires nothing. A cutoff is its own stage and runs
/// only with no class stage in flight, and a class's finalize is emitted
/// only after every cutoff that reads it (mad_cutoff()'s quiescence
/// contract), so a retried cutoff recomputes only the cutoff.
///
/// Threading: execute() may run concurrently for stages of distinct
/// classes — the machine never emits two stages of one class at once —
/// while start() and complete() must be serialised by the caller, and each
/// complete() must follow its stage's execute().
class ScanSchedule {
 public:
  explicit ScanSchedule(StagedScan& scan);
  ScanSchedule(const ScanSchedule&) = delete;
  ScanSchedule& operator=(const ScanSchedule&) = delete;

  [[nodiscard]] std::vector<ScanStage> start();
  /// Executes the stage's body on the StagedScan.
  void execute(const ScanStage& stage);
  [[nodiscard]] std::vector<ScanStage> complete(const ScanStage& stage);
  /// True once every class has finalized.
  [[nodiscard]] bool finished() const noexcept { return finalized_ == num_classes_; }

  /// The stage's static name ("scan.round", ...) for traces and heartbeats.
  [[nodiscard]] static const char* label(ScanStage::Kind kind) noexcept;

 private:
  void advance(std::int64_t target_class, std::vector<ScanStage>& next);
  void arrive(std::int64_t target_class, std::vector<ScanStage>& next);
  void barrier(std::vector<ScanStage>& next);
  void emit_rounds(std::vector<ScanStage>& next);
  void stop_refining(std::int64_t target_class, std::vector<ScanStage>& next);
  void release(std::vector<ScanStage>& next);

  StagedScan& scan_;
  std::int64_t num_classes_;
  bool sync_;   // per-round barrier
  bool async_;  // single rendezvous
  std::int64_t constructed_ = 0;
  std::int64_t finalized_ = 0;
  /// False while a cutoff may still read a stopped class: its finalize is
  /// parked until then.
  bool cutoffs_done_;
  std::vector<std::int64_t> parked_;
  double cutoff_ = 0.0;
  // Sync barrier: the classes in the current round, class stages of the
  // current wave still running, and rounds completed.
  std::vector<std::int64_t> active_;
  std::int64_t in_flight_ = 0;
  std::int64_t rounds_done_ = 0;
  // Async rendezvous: rounds each class still owes, arrivals, and arrived
  // classes with budget left.
  std::vector<std::int64_t> rendezvous_left_;
  std::int64_t arrived_ = 0;
  std::vector<std::int64_t> waiting_;
};

/// Runs a plan to completion and returns its report — Detector::detect()'s
/// executor for ScanSchedule. prepare() runs on the calling thread; each
/// wave of emitted stages runs on the plan's pool (options.pool, else
/// ThreadPool::global()) through parallel_for, and a worker runs a lone
/// same-class successor itself, so a monolithic scan is one pass per class
/// on one worker.
[[nodiscard]] DetectionReport run_scan_plan(const ScanPlan& plan, Network& model,
                                            const Dataset& probe);

}  // namespace usb
