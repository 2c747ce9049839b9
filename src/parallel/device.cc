#include "parallel/device.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace fkde {

namespace {

/// Measured simd/scalar throughput ratio of the fused contribution
/// kernel, installed by the KDE layer's calibration. Stored as an atomic
/// so benches can calibrate from one thread while another builds
/// profiles. 1.0 until calibration runs: an uncalibrated SimdCpu profile
/// models the same cost as the scalar CPU rather than guessing.
std::atomic<double> g_simd_throughput_ratio{1.0};

constexpr int kBusyTickExponent = 96;  // 2^-96 s per BusyTicks tick.

BusyTicks ToBusyTicks(double seconds) {
  return static_cast<BusyTicks>(std::ldexp(seconds, kBusyTickExponent));
}

}  // namespace

double BusySecondsBetween(BusyTicks before, BusyTicks after) {
  if (after < before) return 0.0;
  return std::ldexp(static_cast<double>(after - before), -kBusyTickExponent);
}

void SetSimdThroughputRatio(double ratio) {
  if (ratio > 0.0) {
    g_simd_throughput_ratio.store(ratio, std::memory_order_relaxed);
  }
}

double SimdThroughputRatio() {
  return g_simd_throughput_ratio.load(std::memory_order_relaxed);
}

namespace internal {

std::shared_ptr<HazardChecker> EnvHazardChecker() {
  const char* env = std::getenv("HAZARD_STRICT");
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0) {
    return nullptr;
  }
  return HazardChecker::Create(HazardMode::kStrict);
}

}  // namespace internal

void Device::EnableHazardChecking(HazardMode mode) {
  hazard_checker_ =
      mode == HazardMode::kOff ? nullptr : HazardChecker::Create(mode);
}

void Device::AttachHazardChecker(std::shared_ptr<HazardChecker> checker) {
  hazard_checker_ = std::move(checker);
}

DeviceProfile DeviceProfile::OpenClCpu() {
  DeviceProfile p;
  p.name = "cpu";
  // Intel OpenCL SDK on a quad-core Xeon E5620: heavyweight enqueues,
  // transfers are host-memory copies.
  p.launch_latency_s = 30e-6;
  p.transfer_latency_s = 5e-6;
  p.transfer_bandwidth = 20e9;
  // ~32K-point 8D model estimated in ~1 ms (paper Section 6.4):
  // 32768 * 8 / 1e-3 s ~= 2.6e8 point-attributes/s.
  p.compute_throughput = 2.56e8;
  return p;
}

DeviceProfile DeviceProfile::SimdCpu() {
  DeviceProfile p = OpenClCpu();
  p.name = "cpu-simd";
  p.kernel_backend = KernelBackend::kSimd;
  p.kernel_precision = KernelPrecision::kFloat;
  // Calibrated, not assumed: the KDE layer measures the fused
  // contribution kernel under both backends and installs the ratio; the
  // modeled cpu shard then speeds up by exactly what this machine's
  // vector units deliver. Without calibration (or without AVX2, where
  // the backend resolves to scalar anyway) the ratio is 1.0.
  if (CpuSupportsSimd()) {
    p.compute_throughput *= SimdThroughputRatio();
  }
  return p;
}

DeviceProfile DeviceProfile::SimulatedGtx460() {
  DeviceProfile p;
  p.name = "gpu";
  // Discrete GPU: higher per-launch and per-transfer latency (driver +
  // PCIe round trip), PCIe 2.0 x16 effective bandwidth, ~4x the CPU's
  // kernel throughput (the paper's observed speedup).
  p.launch_latency_s = 25e-6;
  p.transfer_latency_s = 20e-6;
  p.transfer_bandwidth = 6e9;
  // ~128K-point 8D model estimated in <1 ms: 131072 * 8 / 1e-3 ~= 1.0e9.
  p.compute_throughput = 1.05e9;
  return p;
}

double Device::BookLaunch(double work_units, double deps_end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_.kernel_launches += 1;
  // The host always pays the driver round trip for the submission.
  host_pos_s_ += profile_.launch_latency_s;
  overhead_s_ += profile_.launch_latency_s;
  // The kernel starts once the device is free, the submission has landed,
  // and every wait-list dependency has completed on the modeled timeline.
  const double start =
      std::max({device_pos_s_, host_pos_s_, deps_end_s});
  const double duration = work_units / profile_.compute_throughput;
  device_pos_s_ = start + duration;
  busy_ticks_ += ToBusyTicks(duration);
  return device_pos_s_;
}

double Device::BookTransfer(std::uint64_t bytes, bool to_device,
                            double deps_end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (to_device) {
    ledger_.transfers_to_device += 1;
    ledger_.bytes_to_device += bytes;
  } else {
    ledger_.transfers_to_host += 1;
    ledger_.bytes_to_host += bytes;
  }
  host_pos_s_ += profile_.transfer_latency_s;
  overhead_s_ += profile_.transfer_latency_s;
  const double start =
      std::max({device_pos_s_, host_pos_s_, deps_end_s});
  const double duration =
      static_cast<double>(bytes) / profile_.transfer_bandwidth;
  device_pos_s_ = start + duration;
  busy_ticks_ += ToBusyTicks(duration);
  return device_pos_s_;
}

void Device::SyncHostTo(double modeled_end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (modeled_end_s > host_pos_s_) {
    const double stall = modeled_end_s - host_pos_s_;
    host_pos_s_ = modeled_end_s;
    overhead_s_ += stall;
    stall_s_ += stall;
  }
}

void Device::AdvanceHostTime(double seconds) {
  FKDE_CHECK_MSG(seconds >= 0.0, "host time cannot move backwards");
  std::lock_guard<std::mutex> lock(mu_);
  host_pos_s_ += seconds;  // External work: excluded from overhead_s_.
}

double Device::ModeledSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_s_;
}

double Device::HostStallSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stall_s_;
}

double Device::DeviceBusySeconds() const {
  return BusySecondsBetween(0, DeviceBusyTicks());
}

BusyTicks Device::DeviceBusyTicks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_ticks_;
}

double Device::IdleGapFraction() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overhead_s_ > 0.0 ? stall_s_ / overhead_s_ : 0.0;
}

void Device::ResetModeledTime() {
  std::lock_guard<std::mutex> lock(mu_);
  // The timeline positions stay monotone (pending commands keep their
  // modeled schedule); only the reported accumulators reset.
  overhead_s_ = 0.0;
  stall_s_ = 0.0;
  busy_ticks_ = 0;
}

void Device::ResetLedger() {
  std::lock_guard<std::mutex> lock(mu_);
  ledger_ = TransferLedger();
}

namespace {

/// Power-of-two size bucket (>= 256 doubles) for the scratch pool: keeps
/// the number of distinct free-lists small so steady-state workloads hit.
std::size_t ScratchBucket(std::size_t n) {
  std::size_t bucket = 256;
  while (bucket < n) bucket <<= 1;
  return bucket;
}

}  // namespace

ScratchBuffer Device::AcquireScratch(std::size_t n) {
  const std::size_t bucket = ScratchBucket(n);
  std::shared_ptr<internal::ScratchPool> pool = scratch_pool_;
  DeviceBuffer<double> buffer;
  bool reused = false;
  {
    std::lock_guard<std::mutex> lock(pool->mu);
    std::vector<DeviceBuffer<double>>& parked = pool->free_by_bucket[bucket];
    if (!parked.empty()) {
      buffer = std::move(parked.back());
      parked.pop_back();
      pool->stats.hits += 1;
      pool->stats.pooled_bytes -= bucket * sizeof(double);
      reused = true;
    } else {
      buffer = DeviceBuffer<double>(bucket);
      pool->stats.misses += 1;
    }
    pool->stats.outstanding += 1;
  }
  if (reused && hazard_checker_ != nullptr) {
    // The buffer keeps its registry id across park/reuse, but its
    // contents are stale again: reset its initialized-range tracking.
    hazard_checker_->OnScratchReused(buffer.buffer_id());
  }
  // The deleter owns a pool reference, so a handle outliving the device
  // still parks safely; the pool frees its contents when the last
  // reference (device or handle) drops. The checker reference is weak:
  // parks after the checker detached are not the checker's business.
  std::weak_ptr<HazardChecker> weak_checker = hazard_checker_;
  return ScratchBuffer(
      new DeviceBuffer<double>(std::move(buffer)),
      [pool, weak_checker](DeviceBuffer<double>* released) {
        if (std::shared_ptr<HazardChecker> checker = weak_checker.lock()) {
          checker->OnScratchParked(released->buffer_id());
        }
        {
          std::lock_guard<std::mutex> lock(pool->mu);
          pool->stats.outstanding -= 1;
          pool->stats.releases += 1;
          pool->stats.pooled_bytes += released->size() * sizeof(double);
          pool->free_by_bucket[released->size()].push_back(
              std::move(*released));
        }
        delete released;
      });
}

BufferPoolStats Device::scratch_pool_stats() const {
  std::lock_guard<std::mutex> lock(scratch_pool_->mu);
  return scratch_pool_->stats;
}

void Device::TrimScratchPool() {
  std::lock_guard<std::mutex> lock(scratch_pool_->mu);
  scratch_pool_->free_by_bucket.clear();
  scratch_pool_->stats.pooled_bytes = 0;
}

void Device::Launch(const char* kernel_name, std::size_t global_size,
                    double ops_per_item,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::span<const BufferAccess> accesses) {
  default_queue_
      ->EnqueueLaunch(kernel_name, global_size, ops_per_item, body, accesses)
      .Wait();
}

double ReduceSum(Device* device, const DeviceBuffer<double>& buffer,
                 std::size_t offset, std::size_t n) {
  FKDE_CHECK_MSG(offset + n <= buffer.size(), "ReduceSum range exceeds buffer");
  if (n == 0) return 0.0;
  // Tree reduction with "work-group" size 256, mirroring the OpenCL
  // implementation: each level folds the active range by the group size
  // until one partial remains, then a single scalar read-back. The first
  // level reads the (retained) input; later levels ping-pong between two
  // scratch buffers so the input is never clobbered and concurrent groups
  // never write into another group's read range. Levels are enqueued
  // without intermediate waits (the in-order queue chains them); only the
  // final read-back blocks.
  constexpr std::size_t kGroup = kReduceGroupSize;
  const std::size_t first_groups = (n + kGroup - 1) / kGroup;
  CommandQueue* queue = device->default_queue();
  // Pooled scratch: reduction temporaries recycle across calls instead of
  // allocating per reduction.
  ScratchBuffer dst = device->AcquireScratch(first_groups);
  ScratchBuffer spare =
      device->AcquireScratch((first_groups + kGroup - 1) / kGroup);
  In<double> level_in(buffer, offset, n);
  std::size_t active = n;
  for (;;) {
    const std::size_t groups = (active + kGroup - 1) / kGroup;
    const std::size_t level_size = active;
    queue->EnqueueLaunch(
        "reduce_sum_level", groups, static_cast<double>(kGroup),
        std::tuple(level_in, Out(dst, 0, groups)),
        [level_size](std::size_t begin, std::size_t end, const double* in,
                     double* out) {
          for (std::size_t g = begin; g < end; ++g) {
            const std::size_t lo = g * kGroup;
            const std::size_t hi = std::min(lo + kGroup, level_size);
            double acc = 0.0;
            for (std::size_t i = lo; i < hi; ++i) acc += in[i];
            out[g] = acc;
          }
        });
    active = groups;
    if (active <= 1) break;
    level_in = In(dst, 0, active);
    std::swap(dst, spare);
  }
  double result = 0.0;
  device->CopyToHost(*dst, 0, 1, &result);
  return result;
}

namespace {

/// The segmented reduction over `buffer`, whose first level leases
/// `lease` when the input is pooled scratch (null otherwise).
Event EnqueueSegmentLevels(CommandQueue* queue,
                           const DeviceBuffer<double>& buffer,
                           const ScratchBuffer* lease, std::size_t offset,
                           std::size_t segment_size, std::size_t num_segments,
                           DeviceBuffer<double>* out,
                           std::size_t out_offset) {
  FKDE_CHECK(out != nullptr);
  FKDE_CHECK_MSG(offset + segment_size * num_segments <= buffer.size(),
                 "ReduceSumSegments range exceeds buffer");
  FKDE_CHECK_MSG(out_offset + num_segments <= out->size(),
                 "ReduceSumSegments output exceeds buffer");
  FKDE_CHECK_MSG(out->buffer_id() != buffer.buffer_id(),
                 "ReduceSumSegments output may not alias the input");
  if (num_segments == 0) return Event();
  constexpr std::size_t kGroup = kReduceGroupSize;
  Device* device = queue->device();

  // Same level structure per segment as ReduceSum, but every level folds
  // ALL segments in one launch: work item G handles group (G % groups) of
  // segment (G / groups). Levels ping-pong between two segment-major
  // scratch buffers; the final level (one group per segment) writes the
  // per-segment sums straight into `out`.
  if (segment_size == 0) {
    return queue->EnqueueLaunch(
        "reduce_segments_zero", num_segments, 1.0,
        std::tuple(Out(*out, out_offset, num_segments)),
        [](std::size_t begin, std::size_t end, double* sums) {
          for (std::size_t g = begin; g < end; ++g) sums[g] = 0.0;
        });
  }
  const std::size_t first_groups = (segment_size + kGroup - 1) / kGroup;
  // Pooled ping-pong scratch: each level's accessors hold the scratch it
  // reads and writes, so the buffers stay out of the pool until the last
  // level using them retires, then recycle for the next reduction.
  ScratchBuffer dst = device->AcquireScratch(num_segments * first_groups);
  ScratchBuffer spare = device->AcquireScratch(
      num_segments * ((first_groups + kGroup - 1) / kGroup));
  In<double> level_in =
      lease != nullptr
          ? In<double>(*lease, offset, num_segments * segment_size)
          : In<double>(buffer, offset, num_segments * segment_size);
  std::size_t active = segment_size;
  std::size_t in_stride = segment_size;
  Event last;
  for (;;) {
    const std::size_t groups = (active + kGroup - 1) / kGroup;
    const std::size_t level_size = active;
    const std::size_t level_stride = in_stride;
    last = queue->EnqueueLaunch(
        "reduce_segments_level", num_segments * groups,
        static_cast<double>(kGroup),
        std::tuple(level_in, groups == 1
                                 ? Out(*out, out_offset, num_segments)
                                 : Out(dst, 0, num_segments * groups)),
        [level_size, level_stride, groups](std::size_t begin,
                                           std::size_t end,
                                           const double* in,
                                           double* level_out) {
          for (std::size_t item = begin; item < end; ++item) {
            const std::size_t seg = item / groups;
            const std::size_t lo = (item % groups) * kGroup;
            const std::size_t hi = std::min(lo + kGroup, level_size);
            const double* seg_in = in + seg * level_stride;
            double acc = 0.0;
            for (std::size_t i = lo; i < hi; ++i) acc += seg_in[i];
            level_out[item] = acc;
          }
        });
    if (groups == 1) break;
    active = groups;
    level_in = In(dst, 0, num_segments * groups);
    in_stride = groups;
    std::swap(dst, spare);
  }
  return last;
}

}  // namespace

Event EnqueueReduceSumSegments(CommandQueue* queue,
                               const DeviceBuffer<double>& buffer,
                               std::size_t offset, std::size_t segment_size,
                               std::size_t num_segments,
                               DeviceBuffer<double>* out,
                               std::size_t out_offset) {
  return EnqueueSegmentLevels(queue, buffer, nullptr, offset, segment_size,
                              num_segments, out, out_offset);
}

Event EnqueueReduceSumSegments(CommandQueue* queue,
                               const ScratchBuffer& scratch,
                               std::size_t offset, std::size_t segment_size,
                               std::size_t num_segments,
                               DeviceBuffer<double>* out,
                               std::size_t out_offset) {
  FKDE_CHECK(scratch != nullptr);
  return EnqueueSegmentLevels(queue, *scratch, &scratch, offset,
                              segment_size, num_segments, out, out_offset);
}

void ReduceSumSegments(Device* device, const DeviceBuffer<double>& buffer,
                       std::size_t offset, std::size_t segment_size,
                       std::size_t num_segments, DeviceBuffer<double>* out,
                       std::size_t out_offset) {
  EnqueueReduceSumSegments(device->default_queue(), buffer, offset,
                           segment_size, num_segments, out, out_offset)
      .Wait();
}

}  // namespace fkde
