/// \file main.cc
/// \brief The repository benchmark binary.
///
///   fkde_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                  [--spans <path>]
///
/// Generates the workload's inputs from the seed (untimed), times
/// `setup_s` as the median of repeated constructions, runs one reference
/// round per variant (warm-up, and the source of every modeled /
/// deterministic metric), then repeats fresh-construction rounds, rotating
/// through the variants, until `--seconds` is spent; every round must
/// reproduce its variant's reference estimates bit for bit. Wall metrics
/// pool, per window position, the fastest repetition (README, "Noise").
/// `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
/// untraced and traced rounds, runs the per-layer probes, writes the span
/// file and prints the per-layer metrics. The last stdout line is the
/// result JSON; the line before it is the run-health record.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "parallel/simd.h"
#include "probes.h"

namespace perfbench {
namespace {

/// Constructions timed before the reference round (each later round adds
/// one more sample).
constexpr int kSetupReps = 5;
/// Variables that change what is measured; a run refuses to measure
/// when any is set.
constexpr const char* kGuardedEnv[] = {
    "FKDE_KERNEL_BACKEND", "FKDE_KERNEL_PRECISION", "HAZARD_STRICT"};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< Chrome trace output (trace runs only).
};

bool ParseArgs(int argc, char** argv, RunConfig* cfg) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg->workload = value;
    } else if (flag == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg->trace = value == "1";
    } else if (flag == "--spans") {
      cfg->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !cfg->workload.empty() && cfg->seconds > 0;
}

/// CPU steal and involuntary context switches over the timed phase.
class Health {
 public:
  void Begin() { Read(&steal0_, &total0_, &nivcsw0_); }
  void End() { Read(&steal1_, &total1_, &nivcsw1_); }
  double steal_frac() const {
    const double total = static_cast<double>(total1_ - total0_);
    return total > 0 ? static_cast<double>(steal1_ - steal0_) / total : 0.0;
  }
  long nivcsw() const { return nivcsw1_ - nivcsw0_; }

 private:
  static void Read(unsigned long long* steal, unsigned long long* total,
                   long* nivcsw) {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    stat >> cpu;
    for (unsigned long long& x : v) stat >> x;
    *steal = v[7];
    *total = 0;
    for (unsigned long long x : v) *total += x;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    *nivcsw = usage.ru_nivcsw;
  }
  unsigned long long steal0_ = 0, total0_ = 0, steal1_ = 0, total1_ = 0;
  long nivcsw0_ = 0, nivcsw1_ = 0;
};

double RssPeakMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Json(const MetricMap& metrics, Tally* tally) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    double v = m.value;
    if (!tally->Check(std::isfinite(v))) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

void PrintTable(const char* title, const MetricMap& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const RunConfig& cfg) {
  std::string refused;
  for (const char* name : kGuardedEnv) {
    if (std::getenv(name) != nullptr) refused += std::string(" ") + name;
  }
  if (!refused.empty()) {
    std::fprintf(stderr, "refusing to measure: set in environment:%s\n",
                 refused.c_str());
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": "
        "{\"ok_frac\": {\"value\": 0, \"unit\": \"ratio\"}}}\n");
    return 0;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(cfg.workload, cfg.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (workload->OneCpu()) PinToOneCpu();
  const std::vector<fkde::DeviceProfile> profiles = workload->Profiles();
  Tally tally;
  const double start = WallNow();

  std::vector<double> setup_s;
  bool built = true;
  const auto timed_setup = [&](std::size_t variant) {
    const double t0 = WallNow();
    built = built && workload->Setup(variant, &tally);
    setup_s.push_back(WallNow() - t0);
    return built;
  };
  for (int r = 0; r < kSetupReps; ++r) timed_setup(0);

  // Reference rounds: warm-up, and the source of every deterministic
  // metric (all variants folded together).
  RoundModel references[kVariants];
  RoundModel reference;
  double reference_wall_s = 0.0;
  for (std::size_t v = 0; v < kVariants && timed_setup(v); ++v) {
    RoundWall wall(workload->Window());
    workload->Round(v, nullptr, &tally, nullptr, &wall, &references[v]);
    for (const RoundWall::Window& w : wall.windows()) {
      reference_wall_s += w.wall_s;
    }
    reference.Merge(references[v]);
  }
  const double ref_q = static_cast<double>(reference.estimates.size());

  // Timed rounds rotate through the variants; each must reproduce its
  // reference bit for bit.
  std::size_t rounds = 0;
  const auto timed_round = [&](Tracer* tracer,
                               std::vector<RoundWall>* per_variant) {
    const std::size_t v = rounds++ % kVariants;
    if (!timed_setup(v)) return;
    RoundWall wall(workload->Window());
    RoundModel model;
    workload->Round(v, tracer, &tally, &references[v].estimates, &wall, &model);
    per_variant[v].push_back(std::move(wall));
  };
  // Fastest repetition per window position, pooled over the variants.
  const auto fastest = [](const std::vector<RoundWall>* per_variant) {
    RoundWall::Window pooled;
    for (std::size_t v = 0; v < kVariants; ++v) {
      AppendFastestWindows(per_variant[v], &pooled);
    }
    return pooled;
  };

  Health health;
  MetricMap metrics;
  if (!cfg.trace) {
    std::vector<RoundWall> walls[kVariants];
    health.Begin();
    while (built &&
           (rounds < 2 * kVariants || WallNow() < start + cfg.seconds)) {
      timed_round(nullptr, walls);
    }
    health.End();
    const RoundWall::Window best = fastest(walls);
    const double q = static_cast<double>(best.queries);
    metrics["setup_s"] = {Median(setup_s), "s"};
    metrics["estimate_p50_us"] = {Quantile(best.estimate_s, 0.5) * 1e6, "us"};
    metrics["estimate_p99_us"] = {Quantile(best.estimate_s, 0.99) * 1e6, "us"};
    metrics["cycle_p50_us"] = {Quantile(best.cycle_s, 0.5) * 1e6, "us"};
    metrics["cycle_qps"] = {q / best.wall_s, "1/s"};
    metrics["cpu_us_per_query"] = {best.cpu_s / q * 1e6, "us"};
    metrics["modeled_us_per_query"] = {reference.modeled_s / ref_q * 1e6,
                                       "modeled_us"};
    metrics["modeled_p99_us"] = {
        Quantile(reference.modeled_latency_s, 0.99) * 1e6, "modeled_us"};
    metrics["modeled_capacity_qps"] = {ref_q / reference.modeled_s, "1/s"};
    if (built) workload->Extra(&tally, &metrics);
    metrics["rss_peak_mb"] = {RssPeakMb(), "MB"};
  } else {
    // Untraced and traced rounds alternate so drift hits both alike.
    Tracer tracer;
    std::vector<RoundWall> plain[kVariants];
    std::vector<RoundWall> traced[kVariants];
    health.Begin();
    while (built &&
           (rounds < 4 * kVariants || WallNow() < start + 0.5 * cfg.seconds)) {
      timed_round(nullptr, plain);
      timed_round(&tracer, traced);
    }
    RoundLayerMetrics(reference, reference_wall_s, profiles.size(), &metrics);
    metrics["quality.abs_err_mean"] = {reference.abs_err_sum / ref_q,
                                       "fraction"};
    if (built) {
      workload->Probes(&tracer, &tally, reference,
                       std::max(0.0, start + 0.95 * cfg.seconds - WallNow()),
                       &metrics);
    }
    health.End();
    metrics["trace.overhead_frac"] = {
        fastest(traced).wall_s / fastest(plain).wall_s - 1.0, "ratio"};
    if (!cfg.spans_path.empty() &&
        !tally.Check(tracer.WriteChromeJson(cfg.spans_path))) {
      std::fprintf(stderr, "cannot write %s\n", cfg.spans_path.c_str());
    }
    std::printf("span self time (%zu spans, file %s)\n",
                tracer.spans().size(), cfg.spans_path.c_str());
    for (const auto& [name, t] : tracer.LayerTimes()) {
      std::printf("  %-40s n=%-8zu total %10.3f ms  self %10.3f ms\n",
                  name.c_str(), t.count, t.total_s * 1e3, t.self_s * 1e3);
    }
  }
  if (!built) tally.Check(false);
  if (!cfg.trace) {
    metrics["ok_frac"] = {1.0 - static_cast<double>(tally.failed) /
                                    static_cast<double>(std::max<std::uint64_t>(
                                        1, tally.attempted)),
                          "ratio"};
  }

  PrintTable(cfg.trace ? "per-layer metrics" : "end-to-end metrics", metrics);
  std::string backends;
  for (const fkde::DeviceProfile& p : profiles) {
    backends += std::string(backends.empty() ? "" : "+") + p.name + ":" +
                fkde::KernelBackendName(
                    fkde::ResolveKernelBackend(p.kernel_backend)) +
                "/" +
                fkde::KernelPrecisionName(
                    fkde::ResolveKernelPrecision(p.kernel_precision));
  }
  const std::string metrics_json = Json(metrics, &tally);
  std::printf(
      "{\"health\": {\"workload\": \"%s\", \"steal_frac\": %.6f, "
      "\"involuntary_ctx_switches\": %ld, \"devices\": \"%s\", "
      "\"pool_workers\": %zu, \"nproc\": %zu, \"cpus_online\": %u, "
      "\"rounds\": %zu, "
      "\"setup_samples\": %zu, \"reference_queries\": %zu}}\n",
      workload->Describe().c_str(), health.steal_frac(), health.nivcsw(),
      backends.c_str(), PoolWorkersFor(profiles.size()), AllowedCpus(),
      std::thread::hardware_concurrency(), rounds, setup_s.size(),
      reference.estimates.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  if (!perfbench::ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(cfg);
}
