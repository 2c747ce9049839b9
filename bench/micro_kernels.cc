// Microbenchmarks (google-benchmark) for the device kernels behind
// Figure 7: the estimate kernel (eq. 13), the fused estimate+gradient
// kernel (eq. 17), the binary-tree reduction, Scott's rule, and the Karma
// update pass. These give the per-point costs that the Figure 7 cost
// model is built from.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kde/engine.h"
#include "kde/karma.h"
#include "kde/kernel_backend.h"
#include "parallel/device_group.h"
#include "parallel/simd.h"

namespace fkde {
namespace {

struct MicroFixture {
  MicroFixture(std::size_t sample_size, std::size_t dims)
      : device(DeviceProfile::OpenClCpu()),
        sample(&device, sample_size, dims) {
    ClusterBoxesParams params;
    params.rows = sample_size * 2;
    params.dims = dims;
    const Table table = GenerateClusterBoxes(params, 7);
    Rng rng(8);
    FKDE_CHECK_OK(sample.LoadFromTable(table, &rng));
    engine = std::make_unique<KdeEngine>(&sample, KernelType::kGaussian);
    std::vector<double> lo(dims, 0.25), hi(dims, 0.75);
    box = Box(lo, hi);
  }

  std::vector<Box> RandomBoxes(std::size_t count) const {
    const std::size_t dims = sample.dims();
    Rng rng(9);
    std::vector<Box> boxes;
    boxes.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
      std::vector<double> lo(dims), hi(dims);
      for (std::size_t j = 0; j < dims; ++j) {
        const double a = rng.Uniform(), b = rng.Uniform();
        lo[j] = std::min(a, b);
        hi[j] = std::max(a, b);
      }
      boxes.emplace_back(lo, hi);
    }
    return boxes;
  }

  Device device;
  DeviceSample sample;
  std::unique_ptr<KdeEngine> engine;
  Box box;
};

void BM_Estimate(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.engine->Estimate(fixture.box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_Estimate)
    ->ArgsProduct({{1024, 16384, 131072}, {3, 8}})
    ->Unit(benchmark::kMicrosecond);

void BM_EstimateWithGradient(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  std::vector<double> gradient;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.engine->EstimateWithGradient(fixture.box, &gradient));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_EstimateWithGradient)
    ->ArgsProduct({{1024, 16384, 131072}, {3, 8}})
    ->Unit(benchmark::kMicrosecond);

// Batched multi-query evaluation vs the per-query loop it replaces, over
// the bandwidth-optimization batch sizes (m queries x s sample points).
// args: {s, m}.
void BM_EstimateBatch(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<Box> boxes =
      fixture.RandomBoxes(static_cast<std::size_t>(state.range(1)));
  std::vector<double> estimates(boxes.size());
  for (auto _ : state) {
    fixture.engine->EstimateBatch(boxes, estimates);
    benchmark::DoNotOptimize(estimates.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_EstimateBatch)
    ->ArgsProduct({{1024, 16384}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);

void BM_EstimatePerQueryLoop(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<Box> boxes =
      fixture.RandomBoxes(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    for (const Box& box : boxes) {
      benchmark::DoNotOptimize(fixture.engine->Estimate(box));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_EstimatePerQueryLoop)
    ->ArgsProduct({{1024, 16384}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);

void BM_EstimateBatchLossGradient(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<Box> boxes =
      fixture.RandomBoxes(static_cast<std::size_t>(state.range(1)));
  const std::vector<double> truths(boxes.size(), 0.1);
  std::vector<double> gradient;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.engine->EstimateBatchLoss(
        boxes, truths, LossType::kQuadratic, 1e-5, &gradient));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_EstimateBatchLossGradient)
    ->ArgsProduct({{1024, 16384}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);

void BM_EstimateGradientPerQueryLoop(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<Box> boxes =
      fixture.RandomBoxes(static_cast<std::size_t>(state.range(1)));
  const std::vector<double> truths(boxes.size(), 0.1);
  std::vector<double> gradient;
  for (auto _ : state) {
    double loss = 0.0;
    for (std::size_t q = 0; q < boxes.size(); ++q) {
      const double est =
          fixture.engine->EstimateWithGradient(boxes[q], &gradient);
      loss += EvaluateLoss(LossType::kQuadratic, est, truths[q], 1e-5);
    }
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_EstimateGradientPerQueryLoop)
    ->ArgsProduct({{1024, 16384}, {1, 10, 100}})
    ->Unit(benchmark::kMicrosecond);

// Host-side cost of submitting one command to the in-order queue without
// waiting for it — the price the adaptive loop pays per enqueued gradient
// command. The queue drains after timing ends.
void BM_EnqueueLaunchOverhead(benchmark::State& state) {
  Device device(DeviceProfile::OpenClCpu());
  CommandQueue* queue = device.default_queue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queue->EnqueueLaunch("nop", 1, 1.0, [](std::size_t, std::size_t) {}));
  }
  queue->Finish();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueLaunchOverhead)->Unit(benchmark::kNanosecond);

void BM_BlockingLaunchOverhead(benchmark::State& state) {
  Device device(DeviceProfile::OpenClCpu());
  for (auto _ : state) {
    device.Launch("nop", 1, 1.0, [](std::size_t, std::size_t) {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingLaunchOverhead)->Unit(benchmark::kNanosecond);

// Overlap efficiency of the adaptive gradient pass. The sync variant
// blocks on the full estimate+gradient pipeline; the enqueued variant
// hides the gradient behind a modeled query-execution window. Both report
// the modeled per-query milliseconds and the idle-gap fraction
// (HostStallSeconds / ModeledSeconds): sync stalls for most of its
// modeled time, enqueued should stall for almost none of it.
void ReportModeledCounters(benchmark::State& state, const Device& device) {
  const double modeled = device.ModeledSeconds();
  const double iters = static_cast<double>(state.iterations());
  state.counters["modeled_ms"] =
      iters > 0.0 ? modeled * 1e3 / iters : 0.0;
  state.counters["idle_gap"] = device.IdleGapFraction();
}

void BM_GradientSync(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 8);
  std::vector<double> gradient;
  fixture.device.ResetModeledTime();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.engine->EstimateWithGradient(fixture.box, &gradient));
  }
  ReportModeledCounters(state, fixture.device);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GradientSync)
    ->Arg(1024)
    ->Arg(131072)
    ->Unit(benchmark::kMicrosecond);

void BM_GradientEnqueued(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 8);
  // Execution window comfortably above the largest gradient pass here
  // (131072 points x 8 dims x 3 ops at CPU throughput ~= 12 ms).
  constexpr double kQueryExecutionS = 25e-3;
  std::vector<double> gradient;
  fixture.device.ResetModeledTime();
  for (auto _ : state) {
    const std::size_t slot = fixture.engine->BeginEstimateSlot(fixture.box);
    benchmark::DoNotOptimize(fixture.engine->FinishEstimateSlot(slot));
    fixture.engine->EnqueueGradientSlot(slot);
    fixture.device.AdvanceHostTime(kQueryExecutionS);
    fixture.engine->CollectGradientSlot(slot, &gradient);
    fixture.engine->ReleaseSlot(slot);
    benchmark::DoNotOptimize(gradient.data());
  }
  ReportModeledCounters(state, fixture.device);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GradientEnqueued)
    ->Arg(1024)
    ->Arg(131072)
    ->Unit(benchmark::kMicrosecond);

void BM_ReduceSum(benchmark::State& state) {
  Device device(DeviceProfile::OpenClCpu());
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> data(n, 1.0);
  device.CopyToDevice(data.data(), n, &buffer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReduceSum(&device, buffer, 0, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceSum)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_ScottBandwidth(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.engine->ComputeScottBandwidth());
  }
}
BENCHMARK(BM_ScottBandwidth)
    ->Arg(1024)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

void BM_KarmaUpdate(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 5);
  KarmaMaintainer karma(fixture.engine.get(), KarmaOptions());
  (void)fixture.engine->Estimate(fixture.box);
  for (auto _ : state) {
    benchmark::DoNotOptimize(karma.Update(fixture.box, 0.01));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KarmaUpdate)
    ->Arg(1024)
    ->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

void BM_SampleReplaceRow(benchmark::State& state) {
  MicroFixture fixture(1024, 8);
  const std::vector<double> row(8, 0.5);
  std::size_t slot = 0;
  for (auto _ : state) {
    fixture.sample.ReplaceRow(slot, row);
    slot = (slot + 1) % fixture.sample.size();
  }
}
BENCHMARK(BM_SampleReplaceRow)->Unit(benchmark::kNanosecond);

// The raw fused contribution loop of one kernel backend, outside the
// device/queue machinery: per-element cost of the scalar reference, the
// simd double path (the scalar body for the Gaussian; 4-wide for
// Epanechnikov), and the simd float path (8-wide AVX2 with the polynomial
// erf/exp lanes). This is the tentpole's per-element number — the
// speedup column is the calibration ratio the cost model installs.
// args: {sample_size, backend(0=scalar, 1=simd-double, 2=simd-float)}.
void BM_FusedContribution(benchmark::State& state) {
  const std::size_t s = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 3;
  const KernelBackend requested =
      state.range(1) == 0 ? KernelBackend::kScalar : KernelBackend::kSimd;
  const KernelPrecision requested_precision = state.range(1) == 2
                                                  ? KernelPrecision::kFloat
                                                  : KernelPrecision::kDouble;
  const KernelBackend backend = ResolveKernelBackend(requested);
  if (requested == KernelBackend::kSimd &&
      backend != KernelBackend::kSimd) {
    state.SkipWithError("simd backend unavailable (no AVX2 or forced off)");
    return;
  }
  Rng rng(8);
  std::vector<float> strips(s * d);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      strips[j * s + i] = static_cast<float>(rng.Uniform());
    }
  }
  const std::vector<double> h(d, 0.12);
  std::vector<double> bounds(2 * d);
  for (std::size_t j = 0; j < d; ++j) {
    bounds[j] = 0.2;
    bounds[d + j] = 0.7;
  }
  kb::ShardKernelView view;
  view.backend = backend;
  view.precision = ResolveKernelPrecision(requested_precision);
  view.kernel = KernelType::kGaussian;
  view.d = d;
  view.sample = strips.data();
  view.stride = s;
  view.h = h.data();
  std::vector<double> contrib(s);
  for (auto _ : state) {
    kb::FusedContribution(view, bounds.data(), contrib.data(), 0, s);
    benchmark::DoNotOptimize(contrib.data());
  }
  state.SetItemsProcessed(state.iterations() * s * d);
}
BENCHMARK(BM_FusedContribution)
    ->ArgsProduct({{16384, 262144}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// Sharded estimation across a DeviceGroup vs the same sample on one
// device. Per-device counters expose how well the concurrent per-shard
// chains overlap on the modeled timeline: modeled_ms is the group max,
// idle_gap_i each member's stall fraction (host waiting on the fold).
// args: {sample_size, topology(0=cpu+gpu, 1=gpu+gpu, 2=cpu-simd+gpu)}.
void BM_EstimateSharded(benchmark::State& state) {
  const std::size_t sample_size = static_cast<std::size_t>(state.range(0));
  static const char* kTopologies[] = {"cpu+gpu", "gpu+gpu", "cpu-simd+gpu"};
  const std::string topology = kTopologies[state.range(1)];
  // Install the measured ratio into the simd profile before building it.
  if (state.range(1) == 2) kb::CalibrateKernelBackends();
  DeviceGroup group(ParseDeviceTopology(topology).MoveValueOrDie());
  DeviceSample sample(&group, sample_size, 8);
  ClusterBoxesParams params;
  params.rows = sample_size * 2;
  params.dims = 8;
  const Table table = GenerateClusterBoxes(params, 7);
  Rng rng(8);
  FKDE_CHECK_OK(sample.LoadFromTable(table, &rng));
  KdeEngine engine(&sample, KernelType::kGaussian);
  const Box box(std::vector<double>(8, 0.25), std::vector<double>(8, 0.75));
  group.ResetModeledTime();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Estimate(box));
  }
  const double modeled = group.MaxModeledSeconds();
  const double iters = static_cast<double>(state.iterations());
  state.counters["modeled_ms"] = iters > 0.0 ? modeled * 1e3 / iters : 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    state.counters["idle_gap_" + std::to_string(i)] =
        group.device(i)->IdleGapFraction();
  }
  state.counters["queue_depth_hw"] = static_cast<double>(
      group.AggregateQueueStats().depth_high_water);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EstimateSharded)
    ->ArgsProduct({{16384, 262144}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// The same sharded workload with the group-wide strict hazard checker
// attached. Comparing against BM_EstimateSharded bounds the checker's
// overhead on the hot path — and pins that the checker-off path costs
// nothing but a null-pointer branch (the two must match when this one is
// run with the checker detached).
void BM_EstimateShardedHazardChecked(benchmark::State& state) {
  const std::size_t sample_size = static_cast<std::size_t>(state.range(0));
  const std::string topology = state.range(1) == 0 ? "cpu+gpu" : "gpu+gpu";
  DeviceGroupOptions options;
  options.hazard_mode = HazardMode::kStrict;
  DeviceGroup group(ParseDeviceTopology(topology).MoveValueOrDie(),
                    std::move(options));
  DeviceSample sample(&group, sample_size, 8);
  ClusterBoxesParams params;
  params.rows = sample_size * 2;
  params.dims = 8;
  const Table table = GenerateClusterBoxes(params, 7);
  Rng rng(8);
  FKDE_CHECK_OK(sample.LoadFromTable(table, &rng));
  KdeEngine engine(&sample, KernelType::kGaussian);
  const Box box(std::vector<double>(8, 0.25), std::vector<double>(8, 0.75));
  group.ResetModeledTime();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Estimate(box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EstimateShardedHazardChecked)
    ->ArgsProduct({{16384, 262144}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Scratch-pool effectiveness under the batched paths: after the first
// iteration every acquisition should hit the pool, so the steady-state
// hit rate approaches 1 and no per-call allocations remain.
void BM_BatchScratchPoolReuse(benchmark::State& state) {
  MicroFixture fixture(static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<Box> boxes = fixture.RandomBoxes(64);
  std::vector<double> estimates(boxes.size());
  fixture.engine->EstimateBatch(boxes, estimates);  // Populate the pool.
  const BufferPoolStats warm = fixture.device.scratch_pool_stats();
  for (auto _ : state) {
    fixture.engine->EstimateBatch(boxes, estimates);
    benchmark::DoNotOptimize(estimates.data());
  }
  const BufferPoolStats stats = fixture.device.scratch_pool_stats();
  const double acquisitions =
      static_cast<double>((stats.hits - warm.hits) +
                          (stats.misses - warm.misses));
  state.counters["pool_hit_rate"] =
      acquisitions > 0.0
          ? static_cast<double>(stats.hits - warm.hits) / acquisitions
          : 0.0;
  state.SetItemsProcessed(state.iterations() * boxes.size());
}
BENCHMARK(BM_BatchScratchPoolReuse)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fkde

BENCHMARK_MAIN();
