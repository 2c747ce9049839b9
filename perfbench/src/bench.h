/// \file bench.h
/// \brief Shared pieces of the repository benchmark: clocks, sample
/// statistics, the in-memory span recorder, and the workload interface.
///
/// The benchmark treats the library as a black box: every number comes
/// from timing calls into public functions from outside or from reading
/// public counters. See perfbench/README.md for the workloads, the
/// metric-to-layer map and the noise rules the design follows.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parallel/device.h"
#include "parallel/device_group.h"
#include "parallel/thread_pool.h"

namespace perfbench {

// -- Clocks ------------------------------------------------------------

/// Monotonic wall clock, seconds.
double WallNow();
/// Process CPU time (all threads), seconds.
double CpuNow();

// -- Sample statistics -------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// -- Metrics -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Name -> metric; printed in key order.
using MetricMap = std::map<std::string, Metric>;

// -- Tracing -----------------------------------------------------------

/// \brief Named spans kept in memory, written as Chrome trace-event JSON.
///
/// Each span has a start, an end, a parent span and a query id. Spans
/// nest through `Scope` (the innermost open span is the parent). When the
/// tracer pointer is null a `Scope` costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root.
    std::uint64_t query = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII span: opens in the constructor, closes in the destructor.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t query = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total time and self time (duration minus the
  /// part covered by direct children), in seconds.
  struct LayerTime {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span). False on I/O
  /// failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Indexes of open spans, innermost last.
  std::uint64_t next_id_ = 1;
};

/// CPUs this process may run on (its affinity mask).
std::size_t AllowedCpus();

/// Restricts the process, and every thread it creates afterwards, to the
/// last CPU of its affinity mask.
void PinToOneCpu();

/// Worker count of the benchmark-owned pool for a group of `devices`
/// devices: pool workers + one dispatcher per device + the client thread
/// stay within the allowed CPUs (never below one worker).
std::size_t PoolWorkersFor(std::size_t devices);

/// Owns a thread pool sized by `PoolWorkersFor` and a device group on it.
/// The pool is declared first so it outlives the group's devices.
struct OwnedGroup {
  explicit OwnedGroup(const std::vector<fkde::DeviceProfile>& profiles);
  std::unique_ptr<fkde::ThreadPool> pool;
  std::unique_ptr<fkde::DeviceGroup> group;
};

// -- Workloads ---------------------------------------------------------

/// \brief Failure tally feeding `failed` / `ok_frac`.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts one checked operation; returns `ok`.
  bool Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

/// \brief Wall samples of one timed round, cut into windows of
/// consecutive queries.
///
/// Every round serves the same query sequence, so window k of one round
/// and window k of another do the same work; the run keeps, per window,
/// its fastest repetition (see perfbench/README.md, "Noise").
class RoundWall {
 public:
  struct Window {
    double wall_s = 0.0;
    double cpu_s = 0.0;  ///< Process CPU time (all threads).
    std::size_t queries = 0;
    std::vector<double> estimate_s;  ///< Per sample (query or streamed block).
    std::vector<double> cycle_s;     ///< Per sample, whole client cycle.
  };

  /// `window` = samples per window.
  explicit RoundWall(std::size_t window) : window_(window) {}

  /// Starts the clocks; call right before the timed loop.
  void Begin();
  /// Records one sample covering `queries` queries; closes the window
  /// when it holds `window` samples.
  void Add(double estimate_s, double cycle_s, std::size_t queries = 1);

  const std::vector<Window>& windows() const { return windows_; }

 private:
  std::size_t window_;
  Window open_;
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
  std::vector<Window> windows_;
};

/// Appends to `pooled`, for every window position, the fastest repetition
/// across `rounds` (all rounds have the same window count).
void AppendFastestWindows(const std::vector<RoundWall>& rounds,
                          RoundWall::Window* pooled);

/// \brief Deterministic outcome of one round (modeled clock + counters).
struct RoundModel {
  std::vector<double> estimates;  ///< Bitwise cross-round payload.
  double abs_err_sum = 0.0;
  double modeled_s = 0.0;  ///< Group MaxModeledSeconds delta.
  std::vector<double> modeled_latency_s;  ///< Per query.
  fkde::TransferLedger ledger;            ///< Group ledger delta.
  std::uint64_t commands = 0;             ///< Queue commands delta.
  std::size_t depth_high_water = 0;
  double dispatcher_wait_s = 0.0;
  double stall_s = 0.0;        ///< Summed over devices.
  double device_modeled_s = 0.0;  ///< Summed over devices.
  std::uint64_t scratch_hits = 0;
  std::uint64_t scratch_misses = 0;
  std::uint64_t karma_replacements = 0;

  /// Folds `other` in (sums; the high-water mark takes the max).
  void Merge(const RoundModel& other);
};

/// Independent input draws per run. Each variant derives its queries and
/// model seeds from `--seed`; rounds rotate through the variants, so a
/// run's figures average several draws instead of resting on one (the
/// adaptive bandwidth a draw converges to moves per-query kernel cost).
inline constexpr std::size_t kVariants = 4;

/// \brief One benchmark workload: untimed inputs, a timed construction,
/// a fixed-length round of queries, and its per-layer probes. Setup and
/// Round take a variant index in [0, kVariants); Extra and Probes use
/// variant 0.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Short config line for the run-health record.
  virtual std::string Describe() const = 0;
  /// Builds (and first-touches) what the workload serves from the
  /// already-generated inputs, replacing any previous instance. This is
  /// the interval `setup_s` times. False when construction failed.
  virtual bool Setup(std::size_t variant, Tally* tally) = 0;
  /// Serves the round's fixed query sequence on the instance built by the
  /// last `Setup`. Wall samples go to `wall`, modeled results to `model`.
  /// Every estimate must be in [0, 1] and, when `reference` is given,
  /// bitwise equal to the reference round's estimate at that position.
  virtual void Round(std::size_t variant, Tracer* tracer, Tally* tally,
                     const std::vector<double>* reference, RoundWall* wall,
                     RoundModel* model) = 0;
  /// Workload-specific deterministic phases (correctness prefixes, the
  /// open-loop ladder). Adds end-to-end metrics that `Round` cannot give.
  virtual void Extra(Tally* tally, MetricMap* metrics) = 0;
  /// Per-layer probes on probe objects built from the same inputs, plus
  /// the layer counters of the deterministic round `model`. Each probe
  /// stops at its sample cap or when `budget_s` is spent.
  virtual void Probes(Tracer* tracer, Tally* tally, const RoundModel& model,
                      double budget_s, MetricMap* layers) = 0;
  /// Profiles of the served group (for the health record).
  virtual std::vector<fkde::DeviceProfile> Profiles() const = 0;
  /// Wall samples per `RoundWall` window (about 10 ms of serving).
  virtual std::size_t Window() const = 0;
  /// True when the whole process runs on one CPU (see README, "Noise").
  virtual bool OneCpu() const { return false; }
};

/// The named workload with its inputs generated from `seed`; null for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
