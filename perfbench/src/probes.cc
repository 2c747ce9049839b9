#include "probes.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "kde/kernel_backend.h"
#include "kde/snapshot.h"
#include "runtime/catalog.h"

namespace perfbench {
namespace {

using fkde::KdeSelectivityEstimator;

/// Number of probes sharing the budget in `RunCommonProbes`.
constexpr double kProbeSlices = 9.0;
/// Empty-kernel burst length of the enqueue probe.
constexpr std::size_t kEnqueueBurst = 64;

/// Times `fn` until `max_n` samples or `deadline` (never fewer than
/// `min_n`), each call under a span named `name`.
std::vector<double> Sample(Tracer* tracer, const char* name, std::size_t min_n,
                           std::size_t max_n, double deadline,
                           const std::function<void()>& fn) {
  std::vector<double> out;
  while (out.size() < max_n && (out.size() < min_n || WallNow() < deadline)) {
    Tracer::Scope span(tracer, name, out.size());
    const double t0 = WallNow();
    fn();
    out.push_back(WallNow() - t0);
  }
  return out;
}

void QueueProbes(const ProbeSpec& spec, Tracer* tracer, double slice,
                 MetricMap* layers) {
  OwnedGroup owned(spec.profiles);
  fkde::CommandQueue* queue = owned.group->device(0)->default_queue();
  const auto empty = [](std::size_t, std::size_t) {};
  double deadline = WallNow() + slice / 2;
  const std::vector<double> launch_wait =
      Sample(tracer, "probe.queue.launch_wait", 200, 20000, deadline, [&] {
        queue->EnqueueLaunch("perfbench.empty", 1, 1.0, empty).Wait();
      });
  deadline = WallNow() + slice / 2;
  const std::vector<double> burst =
      Sample(tracer, "probe.queue.enqueue_burst", 20, 2000, deadline, [&] {
        for (std::size_t i = 0; i < kEnqueueBurst; ++i) {
          queue->EnqueueLaunch("perfbench.empty", 1, 1.0, empty);
        }
        queue->Finish();
      });
  (*layers)["queue.launch_wait_us"] = {Median(launch_wait) * 1e6, "us"};
  (*layers)["queue.enqueue_us"] = {
      Median(burst) * 1e6 / static_cast<double>(kEnqueueBurst), "us"};
}

void PoolAndReduceProbes(const ProbeSpec& spec, Tracer* tracer, double slice,
                         MetricMap* layers) {
  OwnedGroup owned(spec.profiles);
  const std::size_t s = spec.config.sample_size;
  const std::size_t grain = 1024;
  std::vector<float> data(s, 1.0f);
  std::vector<double> partial((s + grain - 1) / grain, 0.0);
  double deadline = WallNow() + slice / 2;
  const std::vector<double> pf =
      Sample(tracer, "probe.pool.parallel_for", 20, 5000, deadline, [&] {
        owned.pool->ParallelFor(s, grain, [&](std::size_t b, std::size_t e) {
          double sum = 0.0;
          for (std::size_t i = b; i < e; ++i) sum += data[i];
          partial[b / grain] = sum;
        });
      });
  fkde::Device* device = owned.group->device(0);
  fkde::DeviceBuffer<double> values = device->CreateBuffer<double>(s);
  fkde::DeviceBuffer<double> out = device->CreateBuffer<double>(1);
  const std::vector<double> ones(s, 1.0);
  device->CopyToDevice(ones.data(), s, &values);
  deadline = WallNow() + slice / 2;
  const std::vector<double> reduce =
      Sample(tracer, "probe.reduce.segments", 20, 5000, deadline, [&] {
        fkde::ReduceSumSegments(device, values, 0, s, 1, &out);
      });
  (*layers)["pool.parallel_for_us"] = {Median(pf) * 1e6, "us"};
  (*layers)["reduce.segments_us"] = {Median(reduce) * 1e6, "us"};
}

void KernelProbes(const ProbeSpec& spec, Tracer* tracer, MetricMap* layers) {
  const std::size_t rows = spec.config.sample_size;
  const std::size_t d = spec.table->num_cols();
  double scalar = 0.0;
  double simd = 0.0;
  {
    Tracer::Scope span(tracer, "probe.kernel.scalar");
    scalar = fkde::kb::MeasureFusedContributionThroughput(
        fkde::KernelBackend::kScalar, fkde::KernelPrecision::kDouble,
        spec.config.kernel, rows, d, 3);
  }
  {
    Tracer::Scope span(tracer, "probe.kernel.simd_float");
    simd = fkde::kb::MeasureFusedContributionThroughput(
        fkde::KernelBackend::kSimd, fkde::KernelPrecision::kFloat,
        spec.config.kernel, rows, d, 3);
  }
  (*layers)["kernel.scalar_mpts_per_s"] = {scalar / 1e6, "Mpts/s"};
  (*layers)["kernel.simd_float_mpts_per_s"] = {simd / 1e6, "Mpts/s"};
}

void ModelProbes(const ProbeSpec& spec, Tracer* tracer, Tally* tally,
                 double slice, MetricMap* layers) {
  OwnedGroup owned(spec.profiles);
  auto probe = BuildModel(spec.mode, owned.group.get(), spec.table,
                          spec.config, tally);
  if (probe == nullptr) return;
  const std::size_t n = spec.queries.size();
  std::size_t next = 0;
  const auto box = [&]() -> const fkde::Box& {
    return spec.queries[next++ % n].box;
  };

  // kde.engine: the raw estimate / estimate+gradient passes.
  fkde::KdeEngine* engine = probe->engine();
  std::vector<double> gradient;
  double deadline = WallNow() + slice / 4;
  const std::vector<double> engine_est =
      Sample(tracer, "probe.engine.estimate", 5, 5000, deadline,
             [&] { engine->Estimate(box()); });
  deadline = WallNow() + slice / 4;
  const std::vector<double> engine_grad =
      Sample(tracer, "probe.engine.estimate_with_gradient", 5, 5000, deadline,
             [&] { engine->EstimateWithGradient(box(), &gradient); });

  // kde.kde_estimator: the served calls, timed separately.
  std::vector<double> est;
  std::vector<double> fb;
  deadline = WallNow() + slice / 4;
  while (est.size() < 5 || (est.size() < 5000 && WallNow() < deadline)) {
    const fkde::Query& q = spec.queries[next++ % n];
    const double t0 = WallNow();
    double e = 0.0;
    {
      Tracer::Scope span(tracer, "probe.estimator.estimate", est.size());
      e = probe->EstimateSelectivity(q.box);
    }
    const double t1 = WallNow();
    {
      Tracer::Scope span(tracer, "probe.estimator.feedback", est.size());
      probe->ObserveTrueSelectivity(q.box, q.selectivity);
    }
    const double t2 = WallNow();
    tally->Check(e >= 0.0 && e <= 1.0);
    est.push_back(t1 - t0);
    fb.push_back(t2 - t1);
  }
  (*layers)["engine.estimate_us"] = {Median(engine_est) * 1e6, "us"};
  (*layers)["engine.estimate_with_gradient_us"] = {Median(engine_grad) * 1e6,
                                                   "us"};
  (*layers)["estimator.estimate_us"] = {Median(est) * 1e6, "us"};
  (*layers)["estimator.feedback_us"] = {Median(fb) * 1e6, "us"};
  (*layers)["estimator.bookkeeping_us"] = {
      (Median(est) - Median(engine_est)) * 1e6, "us"};

  // kde.snapshot: save and restore of the probe model.
  std::vector<std::uint8_t> bytes;
  deadline = WallNow() + slice / 8;
  const std::vector<double> save =
      Sample(tracer, "probe.snapshot.save", 3, 200, deadline, [&] {
        auto blob = fkde::SnapshotModel(probe.get());
        if (tally->Check(blob.ok())) bytes = blob.MoveValueOrDie();
      });
  deadline = WallNow() + slice / 8;
  const std::vector<double> restore =
      Sample(tracer, "probe.snapshot.restore", 3, 200, deadline, [&] {
        tally->Check(
            fkde::RestoreModel(bytes, owned.group.get(), spec.table).ok());
      });
  (*layers)["snapshot.save_us"] = {Median(save) * 1e6, "us"};
  (*layers)["snapshot.restore_us"] = {Median(restore) * 1e6, "us"};
  (*layers)["snapshot.bytes"] = {static_cast<double>(bytes.size()), "bytes"};
}

/// Two copies of the workload's model in a catalog whose budget holds one:
/// the first estimate of each A,A,B,B,... pair faults, the second hits.
void CatalogProbe(const ProbeSpec& spec, Tracer* tracer, Tally* tally,
                  double slice, MetricMap* layers) {
  std::size_t model_bytes = 0;
  {
    OwnedGroup sizing(spec.profiles);
    auto probe = BuildModel(spec.mode, sizing.group.get(), spec.table,
                            spec.config, tally);
    if (probe == nullptr) return;
    model_bytes = probe->ModelBytes();
  }
  OwnedGroup owned(spec.profiles);
  fkde::ModelCatalog catalog(owned.group.get(),
                             fkde::CatalogOptions{model_bytes * 3 / 2});
  std::vector<std::string> columns;
  for (std::size_t c = 0; c < spec.table->num_cols(); ++c) {
    columns.push_back(std::to_string(c));
  }
  for (const char* table : {"probe_a", "probe_b"}) {
    fkde::ModelSpec model;
    model.mode = spec.mode;
    model.config = spec.config;
    model.table = spec.table;
    const fkde::ModelKey key{table, columns};
    tally->Check(catalog.Register(key, std::move(model)).ok());
  }
  std::vector<fkde::ModelKey> registered = catalog.Keys();
  if (registered.size() != 2) return;
  std::vector<double> hit;
  std::vector<double> fault;
  std::size_t calls = 0;
  const double deadline = WallNow() + slice;
  while (calls < 8 || (calls < 400 && WallNow() < deadline)) {
    const fkde::ModelKey& key = registered[(calls / 2) % 2];
    const fkde::Query& q = spec.queries[calls % spec.queries.size()];
    const std::uint64_t faults0 = catalog.Stats().faults;
    const double t0 = WallNow();
    fkde::Result<double> e = [&] {
      Tracer::Scope span(tracer, "probe.catalog.estimate", calls);
      return catalog.Estimate(key, q.box);
    }();
    const double t1 = WallNow();
    tally->Check(e.ok());
    if (calls >= 2) {  // The first two calls build, they do not fault.
      (catalog.Stats().faults > faults0 ? fault : hit).push_back(t1 - t0);
    }
    if (spec.feedback) {
      tally->Check(catalog.Feedback(key, q.box, q.selectivity).ok());
    }
    ++calls;
  }
  const fkde::CatalogStats stats = catalog.Stats();
  const double kq = static_cast<double>(calls) / 1000.0;
  (*layers)["catalog.hit_estimate_p50_us"] = {Median(hit) * 1e6, "us"};
  (*layers)["catalog.fault_estimate_p50_us"] = {Median(fault) * 1e6, "us"};
  (*layers)["catalog.resident_hit_ratio"] = {
      1.0 - static_cast<double>(stats.faults) / static_cast<double>(calls),
      "ratio"};
  (*layers)["catalog.evictions_per_kq"] = {
      static_cast<double>(stats.evictions) / kq, "count"};
  (*layers)["catalog.faults_per_kq"] = {static_cast<double>(stats.faults) / kq,
                                        "count"};
}

/// The workload's model streamed (window 4) over a query prefix.
void StreamProbe(const ProbeSpec& spec, Tracer* tracer, Tally* tally,
                 MetricMap* layers) {
  OwnedGroup owned(spec.profiles);
  auto probe = BuildModel(spec.mode, owned.group.get(), spec.table,
                          spec.config, tally);
  if (probe == nullptr) return;
  std::vector<fkde::StreamedQuery> queries;
  const std::size_t n = std::min<std::size_t>(64, spec.queries.size());
  for (std::size_t i = 0; i < n; ++i) {
    queries.push_back({spec.queries[i].box, spec.queries[i].selectivity});
  }
  fkde::StreamingOptions options;
  options.window = 4;
  options.execution_seconds = 100e-6;
  options.feedback = spec.feedback;
  fkde::StreamingExecutor executor(owned.group.get(), options);
  Tracer::Scope span(tracer, "probe.stream.run");
  auto report = executor.Run(probe.get(), queries);
  if (!tally->Check(report.ok())) return;
  StreamTotals totals;
  totals.Add(report.ValueOrDie());
  totals.Report(layers);
}

}  // namespace

std::unique_ptr<KdeSelectivityEstimator> BuildModel(
    KdeSelectivityEstimator::Mode mode, fkde::DeviceGroup* group,
    const fkde::Table* table, const fkde::KdeConfig& config, Tally* tally) {
  auto model = KdeSelectivityEstimator::Create(mode, group, table, config);
  if (!tally->Check(model.ok())) return nullptr;
  return model.MoveValueOrDie();
}

void StreamTotals::Add(const fkde::StreamingReport& report) {
  modeled_s += report.modeled_s;
  stall_s += report.stall_s;
  span_s += report.span_s;
  commands += report.total_commands;
  completed += report.completed;
  depth_high_water = std::max(depth_high_water, report.queue_depth_high_water);
}

void StreamTotals::Report(MetricMap* layers) const {
  (*layers)["stream.idle_gap"] = {modeled_s > 0 ? stall_s / modeled_s : 0.0,
                                  "ratio"};
  (*layers)["stream.stall_frac"] = {span_s > 0 ? stall_s / span_s : 0.0,
                                    "ratio"};
  (*layers)["stream.commands_per_query"] = {
      completed > 0 ? static_cast<double>(commands) /
                          static_cast<double>(completed)
                    : 0.0,
      "count"};
  (*layers)["stream.queue_depth_high_water"] = {
      static_cast<double>(depth_high_water), "count"};
}

void RunCommonProbes(const ProbeSpec& spec, Tracer* tracer, Tally* tally,
                     double budget_s, bool catalog, bool stream,
                     MetricMap* layers) {
  const double slice = budget_s / kProbeSlices;
  QueueProbes(spec, tracer, slice, layers);
  PoolAndReduceProbes(spec, tracer, slice, layers);
  KernelProbes(spec, tracer, layers);
  ModelProbes(spec, tracer, tally, 4 * slice, layers);
  if (catalog) CatalogProbe(spec, tracer, tally, slice, layers);
  if (stream) StreamProbe(spec, tracer, tally, layers);
}

void RoundLayerMetrics(const RoundModel& model, double wall_s,
                       std::size_t devices, MetricMap* layers) {
  const double q = static_cast<double>(model.estimates.size());
  const auto per_query = [&](double v) { return v / q; };
  (*layers)["queue.commands_per_query"] = {
      per_query(static_cast<double>(model.commands)), "count"};
  (*layers)["queue.depth_high_water"] = {
      static_cast<double>(model.depth_high_water), "count"};
  (*layers)["queue.dispatcher_wait_frac"] = {
      model.dispatcher_wait_s / (wall_s * static_cast<double>(devices)),
      "ratio"};
  const fkde::TransferLedger& l = model.ledger;
  (*layers)["device.launches_per_query"] = {
      per_query(static_cast<double>(l.kernel_launches)), "count"};
  (*layers)["device.transfers_per_query"] = {
      per_query(static_cast<double>(l.transfers_to_device +
                                    l.transfers_to_host)),
      "count"};
  (*layers)["device.bytes_to_device_per_query"] = {
      per_query(static_cast<double>(l.bytes_to_device)), "bytes"};
  (*layers)["device.bytes_to_host_per_query"] = {
      per_query(static_cast<double>(l.bytes_to_host)), "bytes"};
  const double acquisitions =
      static_cast<double>(model.scratch_hits + model.scratch_misses);
  (*layers)["device.scratch_hit_ratio"] = {
      acquisitions > 0 ? static_cast<double>(model.scratch_hits) / acquisitions
                       : 1.0,
      "ratio"};
  (*layers)["device.idle_gap"] = {
      model.device_modeled_s > 0 ? model.stall_s / model.device_modeled_s : 0.0,
      "ratio"};
  (*layers)["karma.replacements_per_kq"] = {
      1000.0 * per_query(static_cast<double>(model.karma_replacements)),
      "count"};
}

}  // namespace perfbench
