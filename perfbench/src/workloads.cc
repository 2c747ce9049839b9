/// \file workloads.cc
/// \brief The four benchmark workloads. Why each exists, which layers it
/// loads and which it bypasses is in perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "data/generators.h"
#include "kde/kde_estimator.h"
#include "probes.h"
#include "runtime/catalog.h"
#include "runtime/streaming_executor.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using fkde::DeviceGroup;
using fkde::DeviceProfile;
using fkde::KdeConfig;
using fkde::KdeSelectivityEstimator;
using Mode = fkde::KdeSelectivityEstimator::Mode;

constexpr std::uint64_t kSeedStride = 7919;

/// Seed of every workload's tables. The tables are fixed per workload:
/// on this generator the data layout alone moves the mean error by up to
/// 4x between seeds, which would drown the changes the benchmark exists
/// to see. `--seed` draws everything else: the queries, the model's
/// sample and RNG, the catalog's traffic.
constexpr std::uint64_t kTableSeed = 20150531;

/// Untimed inputs: a synthetic table and a pool of queries with their
/// exact (kd-tree counted) selectivities.
struct Inputs {
  fkde::Table table{1};
  std::vector<fkde::Query> queries;
};

Inputs MakeInputs(std::size_t rows, std::size_t dims, const char* spec_name,
                  std::size_t count, std::uint64_t table_seed,
                  std::uint64_t query_seed) {
  Inputs in;
  in.table = fkde::GenerateDataset("synthetic", rows, dims, table_seed)
                 .MoveValueOrDie();
  fkde::WorkloadGenerator generator(in.table);
  fkde::Rng rng(query_seed + 17);
  in.queries = generator.Generate(
      fkde::ParseWorkloadName(spec_name).ValueOrDie(), count, &rng);
  return in;
}

bool InUnitRange(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Group-wide counters read before and after a round.
struct Counters {
  double modeled = 0.0;
  fkde::TransferLedger ledger;
  fkde::CommandQueueStats queue;
  fkde::BufferPoolStats scratch;
  double stall_sum = 0.0;
  double modeled_sum = 0.0;

  static Counters Read(const DeviceGroup& group) {
    Counters c;
    c.modeled = group.MaxModeledSeconds();
    c.ledger = group.AggregateLedger();
    c.queue = group.AggregateQueueStats();
    c.scratch = group.AggregateScratchStats();
    for (std::size_t i = 0; i < group.size(); ++i) {
      c.stall_sum += group.device(i)->HostStallSeconds();
      c.modeled_sum += group.device(i)->ModeledSeconds();
    }
    return c;
  }
};

void AddDelta(const Counters& a, const Counters& b, RoundModel* m) {
  m->modeled_s += b.modeled - a.modeled;
  m->ledger.bytes_to_device +=
      b.ledger.bytes_to_device - a.ledger.bytes_to_device;
  m->ledger.bytes_to_host += b.ledger.bytes_to_host - a.ledger.bytes_to_host;
  m->ledger.transfers_to_device +=
      b.ledger.transfers_to_device - a.ledger.transfers_to_device;
  m->ledger.transfers_to_host +=
      b.ledger.transfers_to_host - a.ledger.transfers_to_host;
  m->ledger.kernel_launches +=
      b.ledger.kernel_launches - a.ledger.kernel_launches;
  m->commands += b.queue.total_commands - a.queue.total_commands;
  m->depth_high_water = std::max(m->depth_high_water, b.queue.depth_high_water);
  m->dispatcher_wait_s += b.queue.dispatcher_wait_s - a.queue.dispatcher_wait_s;
  m->scratch_hits += b.scratch.hits - a.scratch.hits;
  m->scratch_misses += b.scratch.misses - a.scratch.misses;
  m->stall_s += b.stall_sum - a.stall_sum;
  m->device_modeled_s += b.modeled_sum - a.modeled_sum;
}

/// Records one served estimate: range check, bitwise agreement with the
/// reference round (when one exists), error against the truth.
void RecordEstimate(double estimate, double truth,
                    const std::vector<double>* reference, Tally* tally,
                    RoundModel* model) {
  const std::size_t i = model->estimates.size();
  bool ok = InUnitRange(estimate);
  if (reference != nullptr) {
    ok = ok && i < reference->size() && SameBits((*reference)[i], estimate);
  }
  tally->Check(ok);
  model->estimates.push_back(estimate);
  model->abs_err_sum += std::fabs(estimate - truth);
}

// -- point-small / scan-large -------------------------------------------

/// One model, one client, classic estimate (-> feedback) loop.
struct ClassicParams {
  const char* name;
  std::size_t dims;
  std::size_t rows;
  const char* query_class;
  std::size_t sample;
  fkde::KernelType kernel;
  Mode mode;
  DeviceProfile profile;
  bool feedback;
  std::size_t round_queries;
  std::size_t window;
  bool one_cpu;
  std::uint64_t salt;
};

class ClassicWorkload : public Workload {
 public:
  ClassicWorkload(ClassicParams p, std::uint64_t seed)
      : p_(std::move(p)), seed_(seed * kSeedStride + p_.salt) {
    inputs_ = MakeInputs(p_.rows, p_.dims, p_.query_class,
                         kVariants * p_.round_queries, kTableSeed + p_.salt,
                         seed_);
  }

  KdeConfig ConfigFor(std::size_t variant) const {
    KdeConfig c;
    c.sample_size = p_.sample;
    c.kernel = p_.kernel;
    c.seed = seed_ + 29 + 1000 * variant;
    return c;
  }

  std::span<const fkde::Query> QueriesFor(std::size_t variant) const {
    return std::span<const fkde::Query>(inputs_.queries)
        .subspan(variant * p_.round_queries, p_.round_queries);
  }

  std::string Describe() const override {
    return std::string(p_.name) + ": " + fkde::KdeModeName(p_.mode) +
           " s=" + std::to_string(p_.sample) + " d=" +
           std::to_string(p_.dims) + " " + p_.query_class + " on " +
           p_.profile.name + (p_.feedback ? ", estimate+feedback" : ", frozen");
  }

  std::vector<DeviceProfile> Profiles() const override { return {p_.profile}; }
  std::size_t Window() const override { return p_.window; }
  bool OneCpu() const override { return p_.one_cpu; }

  bool Setup(std::size_t variant, Tally* tally) override {
    model_.reset();
    served_ = std::make_unique<OwnedGroup>(Profiles());
    model_ = BuildModel(p_.mode, served_->group.get(), &inputs_.table,
                        ConfigFor(variant), tally);
    return model_ != nullptr;
  }

  void Round(std::size_t variant, Tracer* tracer, Tally* tally,
             const std::vector<double>* reference, RoundWall* wall,
             RoundModel* model) override {
    DeviceGroup& group = *served_->group;
    const Counters before = Counters::Read(group);
    const std::size_t karma_before = model_->karma_replacements();
    const std::span<const fkde::Query> queries = QueriesFor(variant);
    wall->Begin();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const fkde::Query& q = queries[i];
      const double modeled0 = group.MaxModeledSeconds();
      Tracer::Scope cycle(tracer, "cycle", i);
      const double t0 = WallNow();
      double estimate = 0.0;
      {
        Tracer::Scope span(tracer, "estimator.estimate", i);
        estimate = model_->EstimateSelectivity(q.box);
      }
      const double t1 = WallNow();
      if (p_.feedback) {
        Tracer::Scope span(tracer, "estimator.feedback", i);
        model_->ObserveTrueSelectivity(q.box, q.selectivity);
      }
      const double t2 = WallNow();
      model->modeled_latency_s.push_back(group.MaxModeledSeconds() - modeled0);
      RecordEstimate(estimate, q.selectivity, reference, tally, model);
      wall->Add(t1 - t0, t2 - t0);
    }
    AddDelta(before, Counters::Read(group), model);
    model->karma_replacements += model_->karma_replacements() - karma_before;
  }

  void Extra(Tally*, MetricMap*) override {}

  void Probes(Tracer* tracer, Tally* tally, const RoundModel&, double budget_s,
              MetricMap* layers) override {
    ProbeSpec spec{p_.mode, ConfigFor(0), Profiles(), &inputs_.table,
                   QueriesFor(0), p_.feedback};
    RunCommonProbes(spec, tracer, tally, budget_s, /*catalog=*/true,
                    /*stream=*/true, layers);
  }

 private:
  ClassicParams p_;
  std::uint64_t seed_;
  Inputs inputs_;
  std::unique_ptr<OwnedGroup> served_;
  std::unique_ptr<KdeSelectivityEstimator> model_;
};

// -- stream-sharded ------------------------------------------------------

constexpr std::size_t kStreamWindow = 4;
constexpr double kStreamExecutionS = 100e-6;
/// Queries per `StreamingExecutor::Run` call; the wall clock samples one
/// block at a time (per-query time = block time / block size).
constexpr std::size_t kStreamBlock = 16;
constexpr std::size_t kStreamRoundQueries = 128;
/// Open-loop ladder: rungs as fractions of the closed-loop modeled
/// throughput, each `kLadderQueries` long, all on one Poisson arrival
/// schedule (`kArrivalSeed`) scaled to the rung's rate, so rungs and seeds
/// compare like for like. `modeled_p99_us` is read at `kLadderReportRung`.
/// A rung passes when its modeled p99 is within `kLadderP99LimitS` and the
/// achieved rate keeps up with the arrivals (>= 90%: no growing backlog);
/// capacity is the highest passing rate, interpolated on p99 towards the
/// next rung.
constexpr double kLadderRungs[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
constexpr double kLadderReportRung = 0.8;
constexpr std::size_t kLadderQueries = 160;
constexpr double kLadderP99LimitS = 5e-3;
constexpr std::uint64_t kArrivalSeed = 42;
/// Streamed-vs-replay bitwise check length.
constexpr std::size_t kReplayPrefix = 48;

class StreamShardedWorkload : public Workload {
 public:
  explicit StreamShardedWorkload(std::uint64_t seed)
      : seed_(seed * kSeedStride + 3) {
    inputs_ = MakeInputs(65536, 5, "dt", kVariants * kStreamRoundQueries,
                         kTableSeed + 3, seed_);
    for (const fkde::Query& q : inputs_.queries) {
      streamed_.push_back({q.box, q.selectivity});
    }
  }

  KdeConfig ConfigFor(std::size_t variant) const {
    KdeConfig c;
    c.sample_size = 16384;
    c.kernel = fkde::KernelType::kEpanechnikov;
    c.seed = seed_ + 29 + 1000 * variant;
    return c;
  }

  std::span<const fkde::StreamedQuery> QueriesFor(std::size_t variant) const {
    return std::span<const fkde::StreamedQuery>(streamed_)
        .subspan(variant * kStreamRoundQueries, kStreamRoundQueries);
  }

  std::string Describe() const override {
    return "stream-sharded: Adaptive s=16384 d=5 DT on gpu+gpu, window 4, "
           "exec 100us, feedback on";
  }

  std::vector<DeviceProfile> Profiles() const override {
    return {DeviceProfile::SimulatedGtx460(), DeviceProfile::SimulatedGtx460()};
  }
  std::size_t Window() const override { return 1; }
  /// Unpinned, a block waits on every vCPU its three threads touch; see
  /// perfbench/README.md, "Workloads".
  bool OneCpu() const override { return true; }

  bool Setup(std::size_t variant, Tally* tally) override {
    model_.reset();
    served_ = std::make_unique<OwnedGroup>(Profiles());
    model_ = BuildModel(Mode::kAdaptive, served_->group.get(), &inputs_.table,
                        ConfigFor(variant), tally);
    return model_ != nullptr;
  }

  fkde::StreamingOptions Options() const {
    fkde::StreamingOptions o;
    o.window = kStreamWindow;
    o.execution_seconds = kStreamExecutionS;
    o.feedback = true;
    o.arrival_seed = kArrivalSeed;
    return o;
  }

  void Round(std::size_t variant, Tracer* tracer, Tally* tally,
             const std::vector<double>* reference, RoundWall* wall,
             RoundModel* model) override {
    DeviceGroup& group = *served_->group;
    const Counters before = Counters::Read(group);
    const std::size_t karma_before = model_->karma_replacements();
    fkde::StreamingExecutor executor(&group, Options());
    const std::span<const fkde::StreamedQuery> queries = QueriesFor(variant);
    wall->Begin();
    for (std::size_t b = 0; b < queries.size() / kStreamBlock; ++b) {
      const std::span<const fkde::StreamedQuery> block =
          queries.subspan(b * kStreamBlock, kStreamBlock);
      const double modeled0 = group.MaxModeledSeconds();
      const double t0 = WallNow();
      fkde::Result<fkde::StreamingReport> report = [&] {
        Tracer::Scope span(tracer, "stream.run", b);
        return executor.Run(model_.get(), block);
      }();
      const double per_query = (WallNow() - t0) / kStreamBlock;
      const double modeled_per_query =
          (group.MaxModeledSeconds() - modeled0) / kStreamBlock;
      if (!tally->Check(report.ok())) continue;
      const fkde::StreamingReport& r = report.ValueOrDie();
      if (reference == nullptr) stream_.Add(r);  // Reference rounds only.
      for (std::size_t i = 0; i < block.size(); ++i) {
        model->modeled_latency_s.push_back(modeled_per_query);
        RecordEstimate(i < r.estimates.size() ? r.estimates[i] : -1.0,
                       block[i].truth, reference, tally, model);
      }
      wall->Add(per_query, per_query, kStreamBlock);
    }
    AddDelta(before, Counters::Read(group), model);
    model->karma_replacements += model_->karma_replacements() - karma_before;
  }

  /// One fresh model on a fresh group, streamed over `queries`.
  fkde::Result<fkde::StreamingReport> FreshRun(
      std::span<const fkde::StreamedQuery> queries,
      const fkde::StreamingOptions& options, Tally* tally) {
    OwnedGroup owned(Profiles());
    auto model = BuildModel(Mode::kAdaptive, owned.group.get(), &inputs_.table,
                            ConfigFor(0), tally);
    if (model == nullptr) return fkde::Status::Internal("model build failed");
    fkde::StreamingExecutor executor(owned.group.get(), options);
    return executor.Run(model.get(), queries);
  }

  void Extra(Tally* tally, MetricMap* metrics) override {
    // Streamed == pipeline=false replay, bitwise, on a prefix.
    const auto prefix = QueriesFor(0).first(kReplayPrefix);
    fkde::StreamingOptions replay = Options();
    replay.pipeline = false;
    auto a = FreshRun(prefix, Options(), tally);
    auto b = FreshRun(prefix, replay, tally);
    if (tally->Check(a.ok() && b.ok())) {
      const auto& ea = a.ValueOrDie().estimates;
      const auto& eb = b.ValueOrDie().estimates;
      for (std::size_t i = 0; i < kReplayPrefix; ++i) {
        tally->Check(i < ea.size() && i < eb.size() && SameBits(ea[i], eb[i]));
      }
    }

    // Open-loop Poisson ladder on the modeled clock.
    const auto ladder =
        std::span<const fkde::StreamedQuery>(streamed_).first(kLadderQueries);
    auto closed = FreshRun(ladder, Options(), tally);
    if (!tally->Check(closed.ok())) return;
    const double capacity0 = closed.ValueOrDie().throughput_qps;
    std::vector<double> rates;
    std::vector<double> p99s;
    std::vector<bool> passed;
    for (double fraction : kLadderRungs) {
      fkde::StreamingOptions open = Options();
      open.offered_load_qps = fraction * capacity0;
      auto run = FreshRun(ladder, open, tally);
      if (!tally->Check(run.ok())) return;
      const fkde::StreamingReport& r = run.ValueOrDie();
      const double arrival_rate =
          static_cast<double>(kLadderQueries) /
          fkde::StreamingExecutor::PoissonArrivals(
              kLadderQueries, open.offered_load_qps, kArrivalSeed)
              .back();
      const double p99 = Quantile(r.latencies_s, 0.99);
      if (fraction == kLadderReportRung) {
        (*metrics)["modeled_p99_us"] = {p99 * 1e6, "modeled_us"};
      }
      rates.push_back(open.offered_load_qps);
      p99s.push_back(p99);
      passed.push_back(p99 <= kLadderP99LimitS &&
                       r.throughput_qps >= 0.9 * arrival_rate);
    }
    // Highest passing rung; none passing scales the lowest rung down.
    double capacity = rates[0] * kLadderP99LimitS / p99s[0];
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (!passed[i]) continue;
      capacity = rates[i];
      if (i + 1 < rates.size() && !passed[i + 1] && p99s[i + 1] > p99s[i]) {
        const double t = std::min(
            1.0, (kLadderP99LimitS - p99s[i]) / (p99s[i + 1] - p99s[i]));
        capacity += t * (rates[i + 1] - rates[i]);
      }
    }
    (*metrics)["modeled_capacity_qps"] = {capacity, "1/s"};
  }

  void Probes(Tracer* tracer, Tally* tally, const RoundModel&, double budget_s,
              MetricMap* layers) override {
    ProbeSpec spec{Mode::kAdaptive, ConfigFor(0), Profiles(), &inputs_.table,
                   std::span<const fkde::Query>(inputs_.queries)
                       .first(kStreamRoundQueries),
                   true};
    RunCommonProbes(spec, tracer, tally, budget_s, /*catalog=*/true,
                    /*stream=*/false, layers);
    stream_.Report(layers);
  }

 private:
  std::uint64_t seed_;
  Inputs inputs_;
  std::vector<fkde::StreamedQuery> streamed_;
  StreamTotals stream_;
  std::unique_ptr<OwnedGroup> served_;
  std::unique_ptr<KdeSelectivityEstimator> model_;
};

// -- catalog-churn -------------------------------------------------------

constexpr std::size_t kCatalogModels = 16;
/// Budget in model footprints. Three fit, a fourth evicts: under Zipf(1.0)
/// over 16 models LRU then hits about 37% of estimates, so the median
/// estimate is a fault with a wide margin (at four resident models the
/// hit share is about 46% and the median would flip between a 0.2 ms hit
/// and a 1.7 ms fault from seed to seed).
constexpr double kCatalogResidentModels = 3.5;
constexpr std::size_t kCatalogRoundQueries = 160;
constexpr std::size_t kCatalogWindow = 8;
constexpr std::size_t kCatalogPrefix = 160;

class CatalogChurnWorkload : public Workload {
 public:
  explicit CatalogChurnWorkload(std::uint64_t seed)
      : seed_(seed * kSeedStride + 4) {
    for (std::size_t m = 0; m < kCatalogModels; ++m) {
      inputs_.push_back(MakeInputs(16384, 4, "dt", 64, kTableSeed + 1000 * m,
                                   seed_ + 1000 * m));
      keys_.push_back(fkde::ModelKey{std::to_string(m), {"a", "b", "c", "d"}});
    }
    // Zipf(1.0) model choice, uniform query choice within the model.
    std::vector<double> cdf(kCatalogModels);
    double total = 0.0;
    for (std::size_t m = 0; m < kCatalogModels; ++m) {
      total += 1.0 / static_cast<double>(m + 1);
      cdf[m] = total;
    }
    for (std::size_t v = 0; v < kVariants; ++v) {
      fkde::Rng rng(seed_ + 99 + v);
      for (std::size_t i = 0; i < kCatalogRoundQueries; ++i) {
        const double u = rng.Uniform() * total;
        const std::size_t model = std::min<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
            kCatalogModels - 1);
        const std::size_t query = static_cast<std::size_t>(
            rng.Uniform() * static_cast<double>(inputs_[model].queries.size()));
        sequences_[v].push_back({model, query});
      }
    }
    // Budget: about four resident models (footprints are equal).
    OwnedGroup probe(Profiles());
    Tally ignored;
    auto one = BuildModel(Mode::kAdaptive, probe.group.get(),
                          &inputs_[0].table, ConfigFor(0, 0), &ignored);
    model_bytes_ = one == nullptr ? 0 : one->ModelBytes();
    budget_bytes_ = static_cast<std::size_t>(
        kCatalogResidentModels * static_cast<double>(model_bytes_));
  }

  std::string Describe() const override {
    return "catalog-churn: 16 Adaptive s=4096 d=4 DT on gpu, Zipf(1.0), "
           "budget " + std::to_string(budget_bytes_) + " B (3.5 models)";
  }

  std::vector<DeviceProfile> Profiles() const override {
    return {DeviceProfile::SimulatedGtx460()};
  }
  std::size_t Window() const override { return kCatalogWindow; }

  KdeConfig ConfigFor(std::size_t variant, std::size_t m) const {
    KdeConfig c;
    c.sample_size = 4096;
    c.kernel = fkde::KernelType::kEpanechnikov;
    c.seed = seed_ + 29 + 1000 * m + 100000 * variant;
    return c;
  }

  /// A registered, first-touched catalog on `owned`'s group.
  std::unique_ptr<fkde::ModelCatalog> BuildCatalog(std::size_t variant,
                                                   OwnedGroup* owned,
                                                   std::size_t budget,
                                                   Tally* tally) {
    auto catalog = std::make_unique<fkde::ModelCatalog>(
        owned->group.get(), fkde::CatalogOptions{budget});
    for (std::size_t m = 0; m < kCatalogModels; ++m) {
      fkde::ModelSpec spec;
      spec.mode = Mode::kAdaptive;
      spec.config = ConfigFor(variant, m);
      spec.table = &inputs_[m].table;
      if (!tally->Check(catalog->Register(keys_[m], std::move(spec)).ok())) {
        return nullptr;
      }
    }
    for (std::size_t m = 0; m < kCatalogModels; ++m) {
      if (!tally->Check(catalog->Open(keys_[m]).ok())) return nullptr;
    }
    return catalog;
  }

  bool Setup(std::size_t variant, Tally* tally) override {
    catalog_.reset();
    served_ = std::make_unique<OwnedGroup>(Profiles());
    catalog_ = BuildCatalog(variant, served_.get(), budget_bytes_, tally);
    return catalog_ != nullptr;
  }

  /// Serves the first `n` queries of the variant's sequence.
  void Serve(std::size_t variant, fkde::ModelCatalog* catalog, std::size_t n,
             Tracer* tracer, Tally* tally, const std::vector<double>* reference,
             RoundWall* wall, RoundModel* model) {
    DeviceGroup& group = *catalog->group();
    for (std::size_t i = 0; i < n; ++i) {
      const auto [m, qi] = sequences_[variant][i];
      const fkde::Query& q = inputs_[m].queries[qi];
      const std::uint64_t faults0 = catalog->Stats().faults;
      const double modeled0 = group.MaxModeledSeconds();
      Tracer::Scope cycle(tracer, "cycle", i);
      const double t0 = WallNow();
      fkde::Result<double> estimate = [&] {
        Tracer::Scope span(tracer, "catalog.estimate", i);
        return catalog->Estimate(keys_[m], q.box);
      }();
      const double t1 = WallNow();
      fkde::Status fed = [&] {
        Tracer::Scope span(tracer, "catalog.feedback", i);
        return catalog->Feedback(keys_[m], q.box, q.selectivity);
      }();
      const double t2 = WallNow();
      model->modeled_latency_s.push_back(group.MaxModeledSeconds() - modeled0);
      tally->Check(fed.ok());
      RecordEstimate(estimate.ok() ? estimate.ValueOrDie() : -1.0,
                     q.selectivity, reference, tally, model);
      if (wall != nullptr) {
        (catalog->Stats().faults > faults0 ? fault_s_ : hit_s_)
            .push_back(t1 - t0);
        wall->Add(t1 - t0, t2 - t0);
      }
    }
  }

  void Round(std::size_t variant, Tracer* tracer, Tally* tally,
             const std::vector<double>* reference, RoundWall* wall,
             RoundModel* model) override {
    DeviceGroup& group = *served_->group;
    const Counters before = Counters::Read(group);
    const fkde::CatalogStats stats0 = catalog_->Stats();
    wall->Begin();
    Serve(variant, catalog_.get(), kCatalogRoundQueries, tracer, tally,
          reference, wall, model);
    AddDelta(before, Counters::Read(group), model);
    if (reference != nullptr) return;
    // Reference rounds also give the catalog and Karma counts. Opening
    // every model faults cold ones back in; the round is over, so this
    // perturbs nothing measured.
    const fkde::CatalogStats stats1 = catalog_->Stats();
    evictions_ += stats1.evictions - stats0.evictions;
    faults_ += stats1.faults - stats0.faults;
    for (const fkde::ModelKey& key : keys_) {
      auto opened = catalog_->Open(key);
      if (tally->Check(opened.ok())) {
        model->karma_replacements += opened.ValueOrDie()->karma_replacements();
      }
    }
  }

  void Extra(Tally* tally, MetricMap*) override {
    // Under-budget catalog == unlimited-budget catalog, bitwise, on a prefix.
    RoundModel limited;
    RoundModel unlimited;
    {
      OwnedGroup owned(Profiles());
      auto catalog = BuildCatalog(0, &owned, budget_bytes_, tally);
      if (catalog == nullptr) return;
      Serve(0, catalog.get(), kCatalogPrefix, nullptr, tally, nullptr, nullptr,
            &limited);
    }
    {
      OwnedGroup owned(Profiles());
      auto catalog = BuildCatalog(0, &owned, 0, tally);
      if (catalog == nullptr) return;
      Serve(0, catalog.get(), kCatalogPrefix, nullptr, tally,
            &limited.estimates, nullptr, &unlimited);
    }
  }

  void Probes(Tracer* tracer, Tally* tally, const RoundModel&, double budget_s,
              MetricMap* layers) override {
    ProbeSpec spec{Mode::kAdaptive, ConfigFor(0, 0), Profiles(),
                   &inputs_[0].table, inputs_[0].queries, true};
    RunCommonProbes(spec, tracer, tally, budget_s, /*catalog=*/false,
                    /*stream=*/true, layers);
    const double q = static_cast<double>(kVariants * kCatalogRoundQueries);
    (*layers)["catalog.hit_estimate_p50_us"] = {Median(hit_s_) * 1e6, "us"};
    (*layers)["catalog.fault_estimate_p50_us"] = {Median(fault_s_) * 1e6, "us"};
    (*layers)["catalog.resident_hit_ratio"] = {
        1.0 - static_cast<double>(faults_) / q, "ratio"};
    (*layers)["catalog.evictions_per_kq"] = {
        1000.0 * static_cast<double>(evictions_) / q, "count"};
    (*layers)["catalog.faults_per_kq"] = {
        1000.0 * static_cast<double>(faults_) / q, "count"};
  }

 private:
  std::uint64_t seed_;
  std::vector<Inputs> inputs_;
  std::vector<fkde::ModelKey> keys_;
  /// Per variant: (model, query) pairs of one round.
  std::vector<std::pair<std::size_t, std::size_t>> sequences_[kVariants];
  std::size_t model_bytes_ = 0;
  std::size_t budget_bytes_ = 0;
  std::vector<double> hit_s_;
  std::vector<double> fault_s_;
  std::uint64_t evictions_ = 0;
  std::uint64_t faults_ = 0;
  std::unique_ptr<OwnedGroup> served_;
  std::unique_ptr<fkde::ModelCatalog> catalog_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "point-small") {
    return std::make_unique<ClassicWorkload>(
        ClassicParams{"point-small", 8, 65536, "dt", 1024,
                      fkde::KernelType::kEpanechnikov, Mode::kAdaptive,
                      DeviceProfile::OpenClCpu(), true, 1000, 50, true, 1},
        seed);
  }
  if (name == "scan-large") {
    DeviceProfile simd = DeviceProfile::OpenClCpu();
    simd.kernel_backend = fkde::KernelBackend::kSimd;
    simd.kernel_precision = fkde::KernelPrecision::kFloat;
    return std::make_unique<ClassicWorkload>(
        ClassicParams{"scan-large", 8, 300000, "uv", 262144,
                      fkde::KernelType::kGaussian, Mode::kHeuristic,
                      simd, false, 40, 4, false, 2},
        seed);
  }
  if (name == "stream-sharded") {
    return std::make_unique<StreamShardedWorkload>(seed);
  }
  if (name == "catalog-churn") {
    return std::make_unique<CatalogChurnWorkload>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
