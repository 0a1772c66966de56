#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <latch>
#include <map>
#include <thread>

#include "core/deepfool.h"
#include "defenses/masked_trigger.h"
#include "defenses/scan_plan.h"
#include "metrics/ssim.h"
#include "nn/checkpoint.h"
#include "nn/conv.h"
#include "nn/loss.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "utils/rng.h"

namespace perfbench {
namespace {

// The traced run fails when the stage-driven scan and the kernel replay do
// not account for the untraced wall within these shares.
constexpr double kReconcileBound = 0.25;
constexpr double kReplayBound = 0.40;

struct StageSeconds {
  double prepare = 0.0;
  double construct = 0.0;
  double refine = 0.0;
  double finalize = 0.0;
  double reduce = 0.0;
  /// The busiest scan-pool worker's per-class stage time: the critical path
  /// between prepare and the reduction.
  double critical = 0.0;
  [[nodiscard]] double wall() const { return prepare + critical + reduce; }
};

/// Drives one scan stage by stage on the workload's scan pool, in the order
/// detect() runs them: prepare on this thread inside the pool's worker
/// context, then one parallel_for over the classes (the static partition
/// detect() uses) in which each class is constructed, refined and finalized
/// back to back, then the reduction. Per-class stages are timed on the
/// thread that runs them, so their sums are thread-seconds.
usb::DetectionReport staged_scan(const usb::Detector& detector, usb::ThreadPool& pool,
                                 usb::Network& model, const usb::Dataset& probe,
                                 StageSeconds& seconds) {
  usb::StagedScan scan(detector.plan(), model, probe);
  Clock::time_point start = Clock::now();
  {
    const usb::ThreadPool::WorkerContext context(pool);
    scan.prepare();
  }
  seconds.prepare += seconds_since(start);
  std::vector<StageSeconds> per_worker(static_cast<std::size_t>(std::max(1, pool.size())));
  pool.parallel_for(scan.num_classes(), [&](std::int64_t begin, std::int64_t end, int worker) {
    StageSeconds& mine = per_worker[static_cast<std::size_t>(worker)];
    for (std::int64_t t = begin; t < end; ++t) {
      Clock::time_point stage_start = Clock::now();
      scan.construct_class(t);
      mine.construct += seconds_since(stage_start);
      stage_start = Clock::now();
      while (scan.run_round(t)) {
      }
      mine.refine += seconds_since(stage_start);
      stage_start = Clock::now();
      scan.finalize_class(t);
      mine.finalize += seconds_since(stage_start);
    }
  });
  double critical = 0.0;
  for (const StageSeconds& mine : per_worker) {
    seconds.construct += mine.construct;
    seconds.refine += mine.refine;
    seconds.finalize += mine.finalize;
    critical = std::max(critical, mine.construct + mine.refine + mine.finalize);
  }
  seconds.critical += critical;
  start = Clock::now();
  usb::DetectionReport report;
  {
    const usb::ThreadPool::WorkerContext context(pool);
    report = scan.take_report();
  }
  seconds.reduce += seconds_since(start);
  return report;
}

/// Groups top-level module kinds into the families every architecture of
/// the benchmark has, so each traced run reports the same names.
std::string family(const std::string& kind) {
  if (kind == "Conv2d" || kind == "ReLU" || kind == "Linear") return kind;
  if (kind == "MaxPool2d" || kind == "AvgPool2d" || kind == "GlobalAvgPool") return "Pool";
  return "other";  // BatchNorm2d, ResidualBlock, Flatten, ...
}

struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t size = 0;  // square input
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  [[nodiscard]] std::int64_t out_size() const { return (size + 2 * padding - kernel) / stride + 1; }
};

/// Conv geometries of one forward: top-level Conv2d layers from their spec;
/// a ResidualBlock's from its input/output shapes (3x3 conv at the block's
/// stride, 3x3 conv, and a 1x1 projection when the shape changes).
void collect_convs(usb::Module& layer, const usb::Shape& in, const usb::Shape& out,
                   std::vector<ConvGeometry>& convs) {
  if (const auto* conv = dynamic_cast<const usb::Conv2d*>(&layer)) {
    const usb::Conv2dSpec& spec = conv->spec();
    if (spec.groups == 1) {
      convs.push_back(
          {spec.in_channels, spec.out_channels, in[2], spec.kernel, spec.stride, spec.padding});
    }
    return;
  }
  if (layer.name() == "ResidualBlock") {
    const std::int64_t stride = in[2] / out[2];
    convs.push_back({in[1], out[1], in[2], 3, stride, 1});
    convs.push_back({out[1], out[1], out[2], 3, 1, 1});
    if (stride != 1 || in[1] != out[1]) convs.push_back({in[1], out[1], in[2], 1, stride, 0});
  }
}

usb::Tensor filled(const usb::Shape& shape, std::uint64_t seed) {
  usb::Tensor t(shape);
  usb::Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform()) - 0.5F;
  return t;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char text[32];
    std::snprintf(text, sizeof(text), "%s%.3f", out.empty() ? "" : " ", v);
    out += text;
  }
  return out;
}

struct ConvKernelTimes {
  double gemm = 0.0;
  double im2col = 0.0;
  double col2im = 0.0;
  double flops = 0.0;
};

/// Replays the GEMM/im2col/col2im calls one frozen-model forward + input
/// backward makes per conv layer at batch `batch`: one batched im2col and
/// forward GEMM, then per sample a dX GEMM and a col2im (need_dweight off).
ConvKernelTimes replay_convs(const std::vector<ConvGeometry>& convs, std::int64_t batch, int reps,
                             bool gemm_only) {
  ConvKernelTimes total;
  for (const ConvGeometry& g : convs) {
    const std::int64_t kk = g.kernel * g.kernel;
    const std::int64_t patch = g.in_channels * kk;
    const std::int64_t spatial = g.out_size() * g.out_size();
    const usb::Tensor x = filled(usb::Shape{batch, g.in_channels, g.size, g.size}, 11);
    const usb::Tensor w = filled(usb::Shape{g.out_channels, patch}, 12);
    const usb::Tensor dy = filled(usb::Shape{batch, g.out_channels, spatial}, 13);
    usb::Tensor col(usb::Shape{patch, batch * spatial});
    usb::Tensor y(usb::Shape{g.out_channels, batch * spatial});
    usb::Tensor dcol(usb::Shape{patch, spatial});
    usb::Tensor dx(usb::Shape{g.in_channels, g.size, g.size});
    const std::int64_t image = g.in_channels * g.size * g.size;
    total.gemm += median_call_seconds(reps, [&] {
      usb::gemm(false, false, g.out_channels, batch * spatial, patch, w.raw(), patch, col.raw(),
                batch * spatial, y.raw(), batch * spatial, false);
      for (std::int64_t n = 0; n < batch; ++n) {
        usb::gemm(true, false, patch, spatial, g.out_channels, w.raw(), patch,
                  dy.raw() + n * g.out_channels * spatial, spatial, dcol.raw(), spatial, false);
      }
    });
    total.flops += 2.0 * static_cast<double>(g.out_channels * patch * spatial * batch) * 2.0;
    if (gemm_only) continue;
    total.im2col += median_call_seconds(reps, [&] {
      for (std::int64_t n = 0; n < batch; ++n) {
        usb::im2col(x.raw() + n * image, g.in_channels, g.size, g.size, g.kernel, g.stride,
                    g.padding, dcol.raw());
      }
    });
    total.col2im += median_call_seconds(reps, [&] {
      for (std::int64_t n = 0; n < batch; ++n) {
        usb::col2im(dcol.raw(), g.in_channels, g.size, g.size, g.kernel, g.stride, g.padding,
                    dx.raw());
      }
    });
  }
  return total;
}

/// Median times of one replayed refinement step's pieces, in seconds.
struct StepTimes {
  std::map<std::string, double> fwd;  // by module family
  std::map<std::string, double> bwd;
  double blend = 0.0;  // trigger blend + trigger gradient
  double loss = 0.0;
  double ssim = 0.0;
  double adam = 0.0;
  double step = 0.0;  // the whole step
};

const std::vector<std::string>& families() {
  static const std::vector<std::string> names = {"Conv2d", "ReLU", "Linear", "Pool", "other"};
  return names;
}

/// Replays one USB refinement step (Alg. 2) at the workload's own shapes on
/// the calling thread, timing each piece: blend, every top-level module's
/// forward and backward, the loss, SSIM, the trigger gradient, and Adam.
StepTimes replay_step(const usb::UsbConfig& config, const usb::Network& source,
                      const usb::Dataset& probe, std::int64_t target, int reps,
                      std::vector<ConvGeometry>* convs, std::latch& warmed, bool& arrived) {
  usb::Network net = usb::clone_network(source);
  net.set_training(false);
  net.set_param_grads_enabled(false);
  const std::int64_t batch = config.batch_size;
  std::vector<std::int64_t> rows(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) rows[static_cast<std::size_t>(i)] = i % probe.size();
  const usb::Tensor x = probe.gather_images(rows);
  usb::Rng rng(0x5eed);
  usb::MaskedTrigger trigger(probe.spec().channels, probe.spec().image_size, rng,
                             config.lr);
  usb::TensorArena arena;
  usb::TargetedCrossEntropy ce;
  usb::Sequential& layers = net.sequential();

  std::map<std::string, std::vector<double>> fwd;
  std::map<std::string, std::vector<double>> bwd;
  std::vector<double> blend, loss, ssim, adam;
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms the arena
    std::map<std::string, double> fwd_step;
    std::map<std::string, double> bwd_step;
    Clock::time_point start = Clock::now();
    arena.reset();
    trigger.zero_grad();
    const usb::Tensor& blended = trigger.apply_into(x, arena);
    double blend_s = seconds_since(start);

    const usb::Tensor* act = &blended;
    for (std::int64_t i = 0; i < layers.size(); ++i) {
      const usb::Shape in_shape = act->shape();
      start = Clock::now();
      act = &layers.layer(i).forward_into(*act, arena);
      fwd_step[family(layers.layer(i).name())] += seconds_since(start);
      if (rep == 0 && convs != nullptr) {
        collect_convs(layers.layer(i), in_shape, act->shape(), *convs);
      }
    }
    start = Clock::now();
    (void)ce.forward(*act, target);
    const usb::Tensor* upstream = &ce.backward_into(arena);
    const double loss_s = seconds_since(start);
    usb::Tensor* dblended = nullptr;
    for (std::int64_t i = layers.size() - 1; i >= 0; --i) {
      start = Clock::now();
      dblended = &layers.layer(i).backward_into(*upstream, arena);
      bwd_step[family(layers.layer(i).name())] += seconds_since(start);
      upstream = dblended;
    }
    start = Clock::now();
    const usb::SsimGradRef ssim_result = usb::ssim_with_gradient(x, blended, arena, config.ssim);
    dblended->add_scaled(*ssim_result.grad_y, -config.ssim_weight);
    const double ssim_s = seconds_since(start);
    start = Clock::now();
    trigger.accumulate_from_output_grad(*dblended, x);
    trigger.add_mask_l1_grad(config.l1_weight);
    blend_s += seconds_since(start);
    start = Clock::now();
    trigger.step();
    const double adam_s = seconds_since(start);
    if (rep == 0) {
      // Concurrent replays time their steps together.
      arrived = true;
      warmed.arrive_and_wait();
      continue;
    }
    blend.push_back(blend_s);
    loss.push_back(loss_s);
    ssim.push_back(ssim_s);
    adam.push_back(adam_s);
    for (const std::string& name : families()) {
      fwd[name].push_back(fwd_step[name]);
      bwd[name].push_back(bwd_step[name]);
    }
  }

  StepTimes out;
  out.blend = median(blend);
  out.loss = median(loss);
  out.ssim = median(ssim);
  out.adam = median(adam);
  out.step = out.blend + out.loss + out.adam + out.ssim;
  for (const std::string& name : families()) {
    out.fwd[name] = median(fwd[name]);
    out.bwd[name] = median(bwd[name]);
    out.step += out.fwd[name] + out.bwd[name];
  }
  return out;
}

/// Runs `copies` replays at once, one per thread, each on its own 1-thread
/// pool: the concurrency of the workload's refine phase, where every busy
/// scan-pool worker runs one class's step with its kernels inline. Returns
/// the replays' mean times.
StepTimes replay_concurrently(int copies, const usb::UsbConfig& config, const usb::Network& source,
                              const usb::Dataset& probe, std::int64_t target, int reps,
                              std::vector<ConvGeometry>* convs) {
  std::vector<StepTimes> times(static_cast<std::size_t>(copies));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(copies));
  std::vector<std::thread> threads;
  std::latch warmed(copies);
  for (int c = 0; c < copies; ++c) {
    threads.emplace_back([&, c] {
      bool arrived = false;
      try {
        usb::ThreadPool single(1);
        const usb::ThreadPool::WorkerContext context(single);
        times[static_cast<std::size_t>(c)] =
            replay_step(config, source, probe, target, reps, c == 0 ? convs : nullptr, warmed,
                        arrived);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
        if (!arrived) warmed.count_down();  // never strand the other replays
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  StepTimes mean_times;
  const double n = static_cast<double>(copies);
  for (const StepTimes& t : times) {
    for (const std::string& name : families()) {
      mean_times.fwd[name] += t.fwd.at(name) / n;
      mean_times.bwd[name] += t.bwd.at(name) / n;
    }
    mean_times.blend += t.blend / n;
    mean_times.loss += t.loss / n;
    mean_times.ssim += t.ssim / n;
    mean_times.adam += t.adam / n;
    mean_times.step += t.step / n;
  }
  return mean_times;
}

}  // namespace

TraceResult trace_detect(usb::UsbDetector& detector, usb::ThreadPool& pool, int threads,
                         std::vector<Member>& members, const usb::Dataset& probe,
                         const std::vector<std::vector<std::uint8_t>>& references, int repeats,
                         bool smoke, Metrics& metrics) {
  const usb::UsbConfig& config = detector.config();
  TraceResult result;
  const std::int64_t classes = probe.spec().num_classes;
  const int busy = static_cast<int>(std::min<std::int64_t>(threads, classes));
  const double steps_per_scan = static_cast<double>(classes * config.refine_steps);
  constexpr int kReplayReps = 15;
  // Per (repetition, member): an untraced detect() timed from outside, the
  // staged scan, then the kernel replay, back to back, so each ratio compares
  // measurements from one short stretch of machine time; the medians over
  // the pairs are reported.
  std::vector<StageSeconds> stage_runs;
  std::vector<StepTimes> replays;
  std::vector<double> reconcile_ratios;
  std::vector<double> replay_ratios;
  std::vector<double> measured_steps;
  std::vector<ConvGeometry> convs;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const Clock::time_point start = Clock::now();
      const usb::DetectionReport plain = detector.detect(members[i].network, probe);
      const double untraced = seconds_since(start);
      StageSeconds stages;
      const usb::DetectionReport staged =
          staged_scan(detector, pool, members[i].network, probe, stages);
      result.scans += 2;
      if (timeless_bytes(plain) != references[i]) ++result.mismatches;
      if (timeless_bytes(staged) != references[i]) {
        std::printf("# staged %s report differs from detect()\n", members[i].label.c_str());
        ++result.mismatches;
      }
      // Replay at the workload's shapes and refine-stage concurrency.
      replays.push_back(replay_concurrently(busy, config, members[i].network, probe,
                                            members[i].target_class, kReplayReps,
                                            convs.empty() ? &convs : nullptr));
      // Thread-seconds per class step in the refine stage.
      measured_steps.push_back(stages.refine / steps_per_scan);
      reconcile_ratios.push_back(stages.wall() / untraced);
      replay_ratios.push_back(replays.back().step / measured_steps.back());
      stage_runs.push_back(stages);
    }
  }
  const auto stage_median = [&](double StageSeconds::*field) {
    std::vector<double> values;
    for (const StageSeconds& run : stage_runs) values.push_back(run.*field);
    return median(values);
  };
  metrics.set("stage.prepare_s", stage_median(&StageSeconds::prepare), "s");
  metrics.set("stage.construct_s", stage_median(&StageSeconds::construct), "s");
  metrics.set("stage.refine_s", stage_median(&StageSeconds::refine), "s");
  metrics.set("stage.finalize_s", stage_median(&StageSeconds::finalize), "s");
  const double reconcile = median(reconcile_ratios);
  metrics.set("stage.reconcile_ratio", reconcile, "ratio");

  const auto replay_mean = [&](const auto& field) {
    double sum = 0.0;
    for (const StepTimes& step : replays) sum += field(step);
    return sum / static_cast<double>(replays.size());
  };
  for (const std::string& name : families()) {
    metrics.set("nn." + name + ".fwd_ms",
                1e3 * replay_mean([&](const StepTimes& t) { return t.fwd.at(name); }), "ms");
    metrics.set("nn." + name + ".bwd_ms",
                1e3 * replay_mean([&](const StepTimes& t) { return t.bwd.at(name); }), "ms");
  }
  const double ssim_s = replay_mean([](const StepTimes& t) { return t.ssim; });
  metrics.set("ssim.grad_ms", 1e3 * ssim_s, "ms");
  metrics.set("adam.ms", 1e3 * replay_mean([](const StepTimes& t) { return t.adam; }), "ms");
  metrics.set("trigger.blend_grad_ms",
              1e3 * replay_mean([](const StepTimes& t) { return t.blend; }), "ms");
  const double replay_ratio = median(replay_ratios);
  metrics.set("refine.replay_ratio", replay_ratio, "ratio");
  metrics.set("ssim.share_of_refine", ssim_s / median(measured_steps), "share");

  usb::ThreadPool single(1);
  const std::int64_t batch = config.batch_size;
  ConvKernelTimes kernels;
  {
    const usb::ThreadPool::WorkerContext context(single);
    kernels = replay_convs(convs, batch, kReplayReps, /*gemm_only=*/false);
  }
  metrics.set("tensor.gemm_ms", kernels.gemm * 1e3, "ms");
  metrics.set("tensor.im2col_ms", kernels.im2col * 1e3, "ms");
  metrics.set("tensor.col2im_ms", kernels.col2im * 1e3, "ms");
  metrics.set("tensor.gemm_gflops", kernels.flops / kernels.gemm * 1e-9, "GFLOP/s");
  {
    usb::ThreadPool four(4);
    const usb::ThreadPool::WorkerContext context(four);
    const ConvKernelTimes wide = replay_convs(convs, batch, kReplayReps, /*gemm_only=*/true);
    metrics.set("tensor.gemm_t4_over_t1", wide.gemm / kernels.gemm, "ratio");
  }

  // Alg. 1's inner call and the finalize stage's evaluation, at the
  // workload's shapes.
  {
    const usb::ThreadPool::WorkerContext context(single);
    usb::Network net = usb::clone_network(members[0].network);
    net.set_training(false);
    net.set_param_grads_enabled(false);
    const usb::TargetedUapConfig& uap = config.uap;
    std::vector<std::int64_t> rows(static_cast<std::size_t>(uap.batch_size));
    for (std::int64_t i = 0; i < uap.batch_size; ++i) {
      rows[static_cast<std::size_t>(i)] = i % probe.size();
    }
    const usb::Tensor craft = probe.gather_images(rows);
    usb::TensorArena arena;
    const std::int64_t target = members[0].target_class;
    metrics.set("deepfool.call_ms", 1e3 * median_call_seconds(smoke ? 1 : 3, [&] {
                  (void)usb::targeted_deepfool(net, craft, target, uap.deepfool, nullptr, &arena);
                }),
                "ms");
    const usb::ProbeBatchCache cache(probe, 128);
    usb::Rng rng(0x5eed);
    const usb::MaskedTrigger trigger(probe.spec().channels, probe.spec().image_size, rng, 0.1F);
    metrics.set("fooling.eval_ms", 1e3 * median_call_seconds(smoke ? 1 : 5, [&] {
                  (void)usb::fooling_rate(net, cache, trigger, target, &arena);
                }),
                "ms");
  }

  std::printf("# trace: reconcile ratios %s; replay ratios %s\n",
              join(reconcile_ratios).c_str(), join(replay_ratios).c_str());
  if (std::abs(reconcile - 1.0) > kReconcileBound) {
    std::printf("# trace: stage.reconcile_ratio %.3f outside 1 +/- %.2f\n", reconcile,
                kReconcileBound);
    result.within_bounds = false;
  }
  if (std::abs(replay_ratio - 1.0) > kReplayBound) {
    std::printf("# trace: refine.replay_ratio %.3f outside 1 +/- %.2f\n", replay_ratio,
                kReplayBound);
    result.within_bounds = false;
  }
  return result;
}

double calibration_gemm_ms() {
  constexpr std::int64_t n = 256;
  const usb::Tensor a = filled(usb::Shape{n, n}, 1);
  const usb::Tensor b = filled(usb::Shape{n, n}, 2);
  usb::Tensor c(usb::Shape{n, n});
  usb::ThreadPool single(1);
  const usb::ThreadPool::WorkerContext context(single);
  return 1e3 * median_call_seconds(9, [&] {
    usb::gemm(false, false, n, n, n, a.raw(), n, b.raw(), n, c.raw(), n, false);
  });
}

}  // namespace perfbench
