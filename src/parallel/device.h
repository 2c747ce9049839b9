/// \file device.h
/// \brief OpenCL-style execution layer: devices, device-resident buffers,
/// kernel launches, and explicit host<->device transfers.
///
/// The paper runs its estimator through OpenCL on either a discrete GPU
/// (NVIDIA GTX-460) or a multi-core CPU. We reproduce that execution model
/// with two backends:
///
///  * **CPU backend** — kernels really execute on a thread pool; this is a
///    faithful reimplementation of the paper's "OpenCL on the host CPU"
///    configuration.
///  * **Simulated GPU backend** — kernels execute on the same thread pool
///    (so all results are real), but *time* is accounted by a calibrated
///    `DeviceProfile` cost model (per-launch latency, PCIe transfer latency
///    and bandwidth, compute throughput). This preserves the performance
///    *shape* of the paper's Figure 7 without requiring GPU hardware; the
///    substitution is documented in DESIGN.md §1.
///
/// All work is submitted through the device's in-order `CommandQueue`
/// (see command_queue.h): the blocking `Launch`/`CopyToDevice`/`CopyToHost`
/// convenience calls below are exactly enqueue-plus-`Event::Wait()`, and
/// asynchronous callers hold the returned events instead. Modeled time
/// follows the two-timeline rule documented in command_queue.h: the host
/// clock pays submission latencies and stalls, the device clock carries
/// compute/transfer durations, and overlap with concurrent host work
/// (`AdvanceHostTime`) emerges from the dependency graph.
///
/// Both backends meter every host<->device transfer in a `TransferLedger`
/// at enqueue time, which the evaluation uses to validate the paper's
/// transfer-efficiency claims (the sample stays device-resident; only
/// query bounds, estimates, feedback scalars, and replaced sample rows
/// cross the bus).

#ifndef FKDE_PARALLEL_DEVICE_H_
#define FKDE_PARALLEL_DEVICE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "parallel/command_queue.h"
#include "parallel/hazard_checker.h"
#include "parallel/simd.h"
#include "parallel/thread_pool.h"

namespace fkde {

/// \brief Cost-model parameters of an execution device.
///
/// Calibrated against the hardware of the paper's Section 6.4 testbed; see
/// `DeviceProfile::OpenClCpu()` and `DeviceProfile::SimulatedGtx460()`.
struct DeviceProfile {
  /// Human-readable device name.
  std::string name = "cpu";
  /// Fixed cost of scheduling one kernel, seconds. OpenCL runtimes impose
  /// tens of microseconds per enqueue; this produces the flat region of
  /// Figure 7 for small models.
  double launch_latency_s = 30e-6;
  /// Fixed cost of scheduling one host<->device transfer, seconds.
  double transfer_latency_s = 5e-6;
  /// Sustained transfer bandwidth, bytes/second (PCIe 2.0 x16 for the GPU).
  double transfer_bandwidth = 20e9;
  /// Sustained kernel throughput in work-units/second, where a work-unit is
  /// one `ops_per_item` unit reported at launch time (we use
  /// one sample-point-attribute as the unit for KDE kernels).
  double compute_throughput = 2.56e8;
  /// The kernel backend this device models (see simd.h). It does not
  /// pick the executed body — engines run the vector body wherever the
  /// CPU has AVX2, since its double math is bitwise equal to scalar —
  /// but `SimdCpu()` prices its compute at the calibrated simd
  /// throughput, and only a `kSimd` request lets `kernel_precision`
  /// select float math. Scalar by default.
  KernelBackend kernel_backend = KernelBackend::kScalar;
  /// Lane precision of the SIMD path; honoured only when
  /// `kernel_backend` resolves to `kSimd` (double otherwise).
  KernelPrecision kernel_precision = KernelPrecision::kDouble;

  /// Profile matching the paper's quad-core Xeon E5620 running Intel's
  /// OpenCL SDK: ~32K-point 8D models evaluated in ~1 ms.
  static DeviceProfile OpenClCpu();

  /// Profile matching the paper's NVIDIA GTX-460: roughly 4x the CPU's
  /// kernel throughput, higher per-launch and per-transfer latency, and
  /// PCIe-limited transfers. ~128K-point 8D models evaluated in ~1 ms.
  static DeviceProfile SimulatedGtx460();

  /// The OpenClCpu host with the AVX2 kernel backend and float lane math:
  /// same launch/transfer costs, but `compute_throughput` is scaled by
  /// the *measured* simd-vs-scalar throughput ratio of the fused
  /// contribution kernel (see kde/kernel_backend.h's calibration), so
  /// modeled time for cpu shards in `cpu-simd+gpu` topologies reflects
  /// the real vectorized CPU. Falls back to scalar math (and the scalar
  /// cost model) on machines without AVX2.
  static DeviceProfile SimdCpu();
};

/// Installs the calibrated simd-vs-scalar throughput ratio used by
/// `DeviceProfile::SimdCpu()`. Called once by the KDE layer's calibration
/// (kde/kernel_backend.h) — the parallel layer cannot measure KDE math
/// itself without inverting the dependency. Ratios <= 0 are ignored.
void SetSimdThroughputRatio(double ratio);

/// The currently installed simd throughput ratio (1.0 until calibrated).
double SimdThroughputRatio();

/// Modeled busy time in fixed point: 2^-96 s per tick, so every booked
/// duration above ~6e-14 s converts exactly and sums never round (the
/// range is 2^32 s).
using BusyTicks = unsigned __int128;

/// Seconds in `after - before` (two `Device::DeviceBusyTicks` readings),
/// rounded once; 0 when a `ResetModeledTime` fell in between.
double BusySecondsBetween(BusyTicks before, BusyTicks after);

/// \brief Counters for all traffic and launches on a device.
///
/// Counted at enqueue time (deterministically, under the device mutex),
/// so the ledger is meaningful regardless of how far the dispatcher has
/// actually progressed.
struct TransferLedger {
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_to_host = 0;
  std::uint64_t transfers_to_device = 0;
  std::uint64_t transfers_to_host = 0;
  std::uint64_t kernel_launches = 0;

  std::uint64_t total_bytes() const { return bytes_to_device + bytes_to_host; }
};

class Device;

namespace internal {
template <typename T, AccessMode Mode>
class Accessor;
}  // namespace internal

/// \brief Typed device-resident memory.
///
/// Mirrors an OpenCL buffer: created via `Device::CreateBuffer`, filled via
/// `Device::CopyToDevice`, and read back via `Device::CopyToHost`. Kernel
/// bodies reach storage only through the accessors they declare (`In`/
/// `Out`/`InOut`/`InIf` below); the raw pointer is private to this layer.
/// Move-only, like a real device allocation: copying would silently
/// duplicate "device memory" without any metered transfer and mask
/// transfer bugs.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept
      : storage_(std::move(other.storage_)),
        id_(std::exchange(other.id_, 0)) {}
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      // Release the moved-over allocation's registration BEFORE adopting
      // the new one, so the old id never lingers in device bookkeeping
      // (the hazard checker treats a lingering id as still-live memory).
      ReleaseRegistration();
      storage_ = std::move(other.storage_);
      id_ = std::exchange(other.id_, 0);
    }
    return *this;
  }
  ~DeviceBuffer() { ReleaseRegistration(); }

  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }

  /// Process-unique id in the global buffer registry (see
  /// hazard_checker.h); 0 for a default-constructed (unallocated)
  /// buffer. Declared access-sets name buffers by this id.
  std::uint64_t buffer_id() const { return id_; }

 private:
  friend class Device;
  friend class CommandQueue;
  template <typename U, AccessMode Mode>
  friend class internal::Accessor;

  /// Raw storage pointer, for transfers and accessors only. Stable across
  /// moves of the buffer object (the backing heap allocation moves with
  /// it), which lets enqueued commands hold it safely as long as the
  /// buffer outlives them.
  T* device_data() { return storage_.data(); }
  const T* device_data() const { return storage_.data(); }

  explicit DeviceBuffer(std::size_t n)
      : storage_(n),
        id_(internal::BufferRegistry::Global().Register(n * sizeof(T))) {}

  void ReleaseRegistration() {
    if (id_ != 0) {
      internal::BufferRegistry::Global().Release(id_);
      id_ = 0;
    }
  }

  std::vector<T> storage_;
  std::uint64_t id_ = 0;
};

/// Sentinel element count meaning "through the end of the buffer" for the
/// access-set helpers below.
inline constexpr std::size_t kWholeBuffer = ~static_cast<std::size_t>(0);

namespace internal {

template <typename T>
BufferAccess MakeAccess(const DeviceBuffer<T>& buffer, AccessMode mode,
                        std::size_t offset, std::size_t n, std::size_t pitch,
                        std::size_t strips) {
  if (n == kWholeBuffer) {
    n = buffer.size() - std::min(offset, buffer.size());
  }
  FKDE_CHECK_MSG(
      strips > 0 && offset + (strips - 1) * pitch + n <= buffer.size(),
      "declared buffer access out of bounds");
  return BufferAccess{buffer.buffer_id(), offset * sizeof(T), n * sizeof(T),
                      mode, pitch * sizeof(T), strips};
}

}  // namespace internal

/// Access-set builders: the byte range covering `n` elements starting at
/// element `offset` (defaults: the whole buffer), repeated `strips` times
/// `pitch` elements apart for strided layouts. Transfers declare
/// themselves with these; kernels declare through the accessors below,
/// which yield exactly these entries. A hand-built span serves only
/// launches whose body touches no device memory (the hazard tests'
/// declared-only commands).
template <typename T>
BufferAccess Reads(const DeviceBuffer<T>& buffer, std::size_t offset = 0,
                   std::size_t n = kWholeBuffer, std::size_t pitch = 0,
                   std::size_t strips = 1) {
  return internal::MakeAccess(buffer, AccessMode::kRead, offset, n, pitch,
                              strips);
}

template <typename T>
BufferAccess Writes(const DeviceBuffer<T>& buffer, std::size_t offset = 0,
                    std::size_t n = kWholeBuffer, std::size_t pitch = 0,
                    std::size_t strips = 1) {
  return internal::MakeAccess(buffer, AccessMode::kWrite, offset, n, pitch,
                              strips);
}

namespace internal {

/// One declared buffer access plus the device pointer a kernel body
/// receives for it: the shared core of `In`/`Out`/`InOut`/`InIf`. The
/// declaration is what `Reads`/`Writes` build from the same arguments
/// (with `AccessMode::kReadWrite` for `InOut`); the pointer is the first
/// declared element. Only the launch lowering (`CommandQueue`) can read
/// the pointer, so a body holds exactly the device memory its launch
/// declared. Built over a `ScratchBuffer`, the accessor also holds the
/// lease, which the command keeps until it retires.
template <typename T, AccessMode Mode>
class Accessor {
 public:
  using Pointer = std::conditional_t<Mode == AccessMode::kRead, const T*, T*>;
  using Buffer = std::conditional_t<Mode == AccessMode::kRead,
                                    const DeviceBuffer<T>, DeviceBuffer<T>>;

  /// Declares nothing; the body receives nullptr.
  Accessor() = default;
  Accessor(Buffer& buffer, std::size_t offset = 0,
           std::size_t n = kWholeBuffer, std::size_t pitch = 0,
           std::size_t strips = 1)
      : access_(MakeAccess(buffer, Mode, offset, n, pitch, strips)),
        pointer_(buffer.device_data() + offset),
        declared_(true) {}
  Accessor(const std::shared_ptr<DeviceBuffer<T>>& scratch,
           std::size_t offset = 0, std::size_t n = kWholeBuffer,
           std::size_t pitch = 0, std::size_t strips = 1)
      : Accessor(*scratch, offset, n, pitch, strips) {
    lease_ = scratch;
  }

  /// The entry this accessor adds to its launch's access set.
  const BufferAccess& access() const { return access_; }
  /// False only for a disabled `InIf`: no entry, nullptr pointer.
  bool declared() const { return declared_; }

 private:
  friend class fkde::CommandQueue;

  BufferAccess access_;
  Pointer pointer_ = nullptr;
  bool declared_ = false;
  std::shared_ptr<const void> lease_;
};

}  // namespace internal

/// Typed accessors for the accessor form of `EnqueueLaunch`/`Launch`:
/// a read (`In`), a write (`Out`) or both (`InOut`) of `n` elements from
/// element `offset` (defaults: the whole buffer), repeated `strips` times
/// `pitch` elements apart for strided layouts. Each takes a
/// `DeviceBuffer` or a pooled `ScratchBuffer`. Example:
///   queue->EnqueueLaunch(
///       "kde_contributions", s, d,
///       std::tuple(In(sample, 0, rows, capacity, d), Out(contributions)),
///       [](std::size_t begin, std::size_t end, const float* x,
///          double* contrib) { ... });
template <typename T>
struct In : internal::Accessor<T, AccessMode::kRead> {
  using internal::Accessor<T, AccessMode::kRead>::Accessor;
};
template <typename T>
struct Out : internal::Accessor<T, AccessMode::kWrite> {
  using internal::Accessor<T, AccessMode::kWrite>::Accessor;
};
template <typename T>
struct InOut : internal::Accessor<T, AccessMode::kReadWrite> {
  using internal::Accessor<T, AccessMode::kReadWrite>::Accessor;
};

template <typename T, typename... R>
In(const DeviceBuffer<T>&, R...) -> In<T>;
template <typename T, typename... R>
In(const std::shared_ptr<DeviceBuffer<T>>&, R...) -> In<T>;
template <typename T, typename... R>
Out(DeviceBuffer<T>&, R...) -> Out<T>;
template <typename T, typename... R>
Out(const std::shared_ptr<DeviceBuffer<T>>&, R...) -> Out<T>;
template <typename T, typename... R>
InOut(DeviceBuffer<T>&, R...) -> InOut<T>;
template <typename T, typename... R>
InOut(const std::shared_ptr<DeviceBuffer<T>>&, R...) -> InOut<T>;

/// A read that is declared only when `enabled` (an optional input such
/// as the variable-KDE point scales): disabled, it adds no entry and the
/// body receives nullptr.
template <typename T>
struct InIf : internal::Accessor<T, AccessMode::kRead> {
  InIf(bool enabled, const DeviceBuffer<T>& buffer, std::size_t offset = 0,
       std::size_t n = kWholeBuffer)
      : internal::Accessor<T, AccessMode::kRead>(
            enabled ? internal::Accessor<T, AccessMode::kRead>(buffer, offset,
                                                               n)
                    : internal::Accessor<T, AccessMode::kRead>()) {}
};

/// \brief Counters of a device's scratch-buffer pool (see
/// `Device::AcquireScratch`). A *hit* reuses a parked buffer — no
/// allocation, no metered traffic; a *miss* allocates a fresh one. The
/// batched hot paths are pinned to hit after warm-up (buffer_pool_test).
struct BufferPoolStats {
  std::uint64_t hits = 0;      ///< Acquisitions served from the pool.
  std::uint64_t misses = 0;    ///< Acquisitions that allocated.
  std::uint64_t releases = 0;  ///< Buffers parked back into the pool.
  std::uint64_t outstanding = 0;  ///< Currently acquired, not yet parked.
  std::uint64_t pooled_bytes = 0; ///< Bytes parked and ready for reuse.
};

/// \brief Shared handle to a pooled scratch buffer. When the last
/// reference drops — including references captured by enqueued kernel
/// bodies — the buffer is parked back into its device's pool, not freed.
using ScratchBuffer = std::shared_ptr<DeviceBuffer<double>>;

namespace internal {

/// Size-bucketed free-list behind `Device::AcquireScratch`. Held via
/// shared_ptr by the device *and* by every ScratchBuffer deleter, so
/// releases that happen on executing threads during teardown still have
/// a live pool to park into.
struct ScratchPool {
  std::mutex mu;
  std::map<std::size_t, std::vector<DeviceBuffer<double>>> free_by_bucket;
  BufferPoolStats stats;
};

/// Strict checker when `HAZARD_STRICT=1` is set in the environment (the
/// CI toggle that runs every suite under hazard checking); nullptr
/// otherwise.
std::shared_ptr<HazardChecker> EnvHazardChecker();

}  // namespace internal

/// \brief An execution device with device-resident memory.
///
/// All compute goes through `Launch` or `CommandQueue::EnqueueLaunch`; all
/// data movement goes through `CopyToDevice`/`CopyToHost` or their enqueue
/// variants. Host code must not touch a DeviceBuffer's storage outside of
/// a kernel functor — the transfer ledger is only meaningful if this
/// discipline is kept (enforced by convention and code review, as in real
/// OpenCL code).
class Device {
 public:
  explicit Device(DeviceProfile profile,
                  ThreadPool* pool = &ThreadPool::Global())
      : profile_(std::move(profile)),
        pool_(pool),
        scratch_pool_(std::make_shared<internal::ScratchPool>()),
        hazard_checker_(internal::EnvHazardChecker()),
        default_queue_(std::make_unique<CommandQueue>(this)) {}

  // The default queue holds a pointer back to this device.
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceProfile& profile() const { return profile_; }
  ThreadPool* pool() const { return pool_; }

  /// The device's in-order command queue. Asynchronous callers enqueue
  /// here and hold the returned events.
  CommandQueue* default_queue() { return default_queue_.get(); }

  /// Occupancy counters of the default queue (depth high-water mark,
  /// total commands, starvation time) — the pipeline-fill signal the
  /// streaming executor and the traffic bench report per device.
  CommandQueueStats queue_stats() const { return default_queue_->Stats(); }

  /// Allocates an uninitialized device buffer of `n` elements.
  template <typename T>
  DeviceBuffer<T> CreateBuffer(std::size_t n);

  /// Acquires a pooled scratch buffer of at least `n` doubles (rounded up
  /// to a power-of-two bucket). Contents are stale — callers must write
  /// before reading. The buffer parks back into the pool when the last
  /// handle drops, so enqueued kernel bodies may capture the handle to
  /// keep scratch alive exactly as long as the command chain needs it.
  /// Pool traffic is host-side bookkeeping only: never metered in the
  /// ledger, never charged on the modeled clocks.
  ScratchBuffer AcquireScratch(std::size_t n);

  /// Snapshot of the scratch-pool counters.
  BufferPoolStats scratch_pool_stats() const;

  /// Frees every parked scratch buffer (outstanding handles are
  /// unaffected and still park on release).
  void TrimScratchPool();

  /// Copies `n` host elements into `dst` starting at element `offset`,
  /// blocking until completion (enqueue + wait). Empty transfers are free.
  template <typename T>
  void CopyToDevice(const T* host, std::size_t n, DeviceBuffer<T>* dst,
                    std::size_t offset = 0);

  /// Copies `n` device elements starting at `offset` out to `host`,
  /// blocking until completion (enqueue + wait). Empty transfers are free.
  template <typename T>
  void CopyToHost(const DeviceBuffer<T>& src, std::size_t offset,
                  std::size_t n, T* host);

  /// Blocking `CommandQueue::EnqueueCopyRectToDevice`/`...ToHost`.
  template <typename T>
  void CopyRectToDevice(const T* host, std::size_t n, std::size_t strips,
                        std::size_t pitch, DeviceBuffer<T>* dst,
                        std::size_t offset = 0) {
    default_queue_->EnqueueCopyRectToDevice(host, n, strips, pitch, dst,
                                            offset).Wait();
  }
  template <typename T>
  void CopyRectToHost(const DeviceBuffer<T>& src, std::size_t offset,
                      std::size_t n, std::size_t strips, std::size_t pitch,
                      T* host) {
    default_queue_->EnqueueCopyRectToHost(src, offset, n, strips, pitch, host)
        .Wait();
  }

  /// Enqueues a data-parallel kernel over `global_size` work items and
  /// blocks until completion. `ops_per_item` is the work-unit count per
  /// item used for modeled-time accounting. The functor receives a
  /// half-open index range [begin, end) (a "work-group" of items).
  /// `accesses` declares the buffer ranges the kernel touches (see
  /// command_queue.h).
  void Launch(const char* kernel_name, std::size_t global_size,
              double ops_per_item,
              const std::function<void(std::size_t, std::size_t)>& body,
              std::span<const BufferAccess> accesses = {});

  /// Blocking accessor form (see `CommandQueue::EnqueueLaunch`).
  template <typename... A, typename Body>
  void Launch(const char* kernel_name, std::size_t global_size,
              double ops_per_item, const std::tuple<A...>& accessors,
              Body body) {
    default_queue_
        ->EnqueueLaunch(kernel_name, global_size, ops_per_item, accessors,
                        std::move(body))
        .Wait();
  }

  /// Attaches a fresh hazard checker in `mode` (replacing any current
  /// one), or detaches with `HazardMode::kOff`. Overrides the
  /// `HAZARD_STRICT=1` environment toggle applied at construction.
  /// Attach/detach before enqueuing work — the pointer is read unlocked
  /// on the enqueue paths.
  void EnableHazardChecking(HazardMode mode);

  /// Shares an existing checker (e.g. a DeviceGroup-wide one, so
  /// cross-device wait-list edges resolve against one DAG).
  void AttachHazardChecker(std::shared_ptr<HazardChecker> checker);

  /// The attached checker, or nullptr when checking is off. The
  /// zero-cost-when-off flag: enqueue paths branch on this pointer.
  HazardChecker* hazard_checker() const { return hazard_checker_.get(); }

  std::shared_ptr<HazardChecker> shared_hazard_checker() const {
    return hazard_checker_;
  }

  /// Advances the host modeled clock by `seconds` of *external* work —
  /// e.g. the database executing the query whose selectivity was just
  /// estimated (Section 5.5). Enqueued device work proceeds during this
  /// time, so a later `Event::Wait()` stalls only for whatever the
  /// external work did not cover. External time is excluded from
  /// `ModeledSeconds()`.
  void AdvanceHostTime(double seconds);

  /// Accumulated modeled host-timeline cost — submission latencies,
  /// waited-for compute/transfer durations, and stalls — since the last
  /// `ResetModeledTime`, excluding `AdvanceHostTime`. This is the
  /// estimator's own overhead per the paper's Figure 7. For the CPU
  /// profile it approximates real runtime; for the simulated GPU it *is*
  /// the reported runtime.
  double ModeledSeconds() const;

  /// Portion of `ModeledSeconds()` spent stalled in `Event::Wait()` /
  /// `Finish()` for device work that had not completed on the modeled
  /// timeline — the idle gap that enqueue-based overlap eliminates.
  double HostStallSeconds() const;

  /// Accumulated modeled device occupancy (compute + transfer durations)
  /// since the last `ResetModeledTime`, whether or not the host waited.
  double DeviceBusySeconds() const;

  /// The same occupancy as an exact fixed-point count (`BusyTicks`), for
  /// measuring a span of work: the busy time between two readings
  /// (`BusySecondsBetween`) is the sum of the durations booked in between,
  /// independent of everything the device ran before. A rebalancer on a
  /// device shared with other models, or restored onto a fresh one, then
  /// measures a pass exactly as it would alone.
  BusyTicks DeviceBusyTicks() const;

  /// Stall fraction of the modeled clock —
  /// `HostStallSeconds / ModeledSeconds`, read under one lock — the
  /// "idle gap" of the benches: time the host sat waiting for device work
  /// that enqueue-based overlap could have hidden. 0 when nothing has
  /// been modeled yet.
  double IdleGapFraction() const;

  void ResetModeledTime();

  const TransferLedger& ledger() const { return ledger_; }
  void ResetLedger();

 private:
  friend class Event;
  friend class CommandQueue;

  /// Books one kernel launch of `work_units` work units at enqueue time:
  /// charges the submission latency to the host clock, schedules the
  /// compute on the device clock after `deps_end_s` and everything
  /// already enqueued, and meters the ledger. Returns the command's
  /// modeled completion time.
  double BookLaunch(double work_units, double deps_end_s);

  /// Books one transfer at enqueue time (same rules as BookLaunch).
  double BookTransfer(std::uint64_t bytes, bool to_device, double deps_end_s);

  /// Advances the host clock to `modeled_end_s` (an absolute device-
  /// timeline instant); the shortfall is charged as a stall. Called by
  /// `Event::Wait`.
  void SyncHostTo(double modeled_end_s);

  DeviceProfile profile_;
  ThreadPool* pool_;
  TransferLedger ledger_;

  /// Guards the ledger and the modeled clocks. All bookkeeping happens at
  /// enqueue/wait time on host threads; kernel execution never takes it.
  mutable std::mutex mu_;
  double host_pos_s_ = 0.0;    ///< Host timeline position (monotone).
  double device_pos_s_ = 0.0;  ///< Device-available instant (monotone).
  double overhead_s_ = 0.0;    ///< ModeledSeconds accumulator.
  double stall_s_ = 0.0;       ///< HostStallSeconds accumulator.
  BusyTicks busy_ticks_ = 0;   ///< DeviceBusySeconds accumulator.

  /// Shared with every ScratchBuffer deleter: a handle released after the
  /// device is gone still parks into a live pool.
  std::shared_ptr<internal::ScratchPool> scratch_pool_;

  /// Hazard checker, or nullptr when checking is off. Declared before
  /// the queue: the queue's destructor drains through `Event::Wait`,
  /// which notifies the checker.
  std::shared_ptr<HazardChecker> hazard_checker_;

  /// Declared last: destroyed first, draining all pending commands while
  /// the profile/ledger/pool above are still alive.
  std::unique_ptr<CommandQueue> default_queue_;
};

template <typename T>
DeviceBuffer<T> Device::CreateBuffer(std::size_t n) {
  return DeviceBuffer<T>(n);
}

template <typename T>
Event CommandQueue::EnqueueCopyToDevice(const T* host, std::size_t n,
                                        DeviceBuffer<T>* dst,
                                        std::size_t offset,
                                        std::span<const Event> wait_list) {
  return EnqueueCopyRectToDevice(host, n, 1, n, dst, offset, wait_list);
}

template <typename T>
Event CommandQueue::EnqueueCopyToHost(const DeviceBuffer<T>& src,
                                      std::size_t offset, std::size_t n,
                                      T* host,
                                      std::span<const Event> wait_list) {
  return EnqueueCopyRectToHost(src, offset, n, 1, n, host, wait_list);
}

template <typename T>
Event CommandQueue::EnqueueCopyRectToDevice(const T* host, std::size_t n,
                                            std::size_t strips,
                                            std::size_t pitch,
                                            DeviceBuffer<T>* dst,
                                            std::size_t offset,
                                            std::span<const Event> wait_list) {
  FKDE_CHECK_MSG(
      strips > 0 && offset + (strips - 1) * pitch + n <= dst->size(),
      "CopyToDevice out of bounds");
  if (n == 0) return Event();  // Nothing moves: not metered, not charged.
  // Transfers auto-declare their device-side access-set; the host
  // pointer is untracked staging memory.
  return EnqueueCopyBytes(dst->device_data() + offset, pitch * sizeof(T), host,
                          n * sizeof(T), n * sizeof(T), strips,
                          /*to_device=*/true,
                          Writes(*dst, offset, n, pitch, strips), wait_list);
}

template <typename T>
Event CommandQueue::EnqueueCopyRectToHost(const DeviceBuffer<T>& src,
                                          std::size_t offset, std::size_t n,
                                          std::size_t strips,
                                          std::size_t pitch, T* host,
                                          std::span<const Event> wait_list) {
  FKDE_CHECK_MSG(
      strips > 0 && offset + (strips - 1) * pitch + n <= src.size(),
      "CopyToHost out of bounds");
  if (n == 0) return Event();
  return EnqueueCopyBytes(host, n * sizeof(T), src.device_data() + offset,
                          pitch * sizeof(T), n * sizeof(T), strips,
                          /*to_device=*/false,
                          Reads(src, offset, n, pitch, strips), wait_list);
}

template <typename... A, typename Body>
Event CommandQueue::EnqueueLaunch(const char* kernel_name,
                                  std::size_t global_size,
                                  double ops_per_item,
                                  const std::tuple<A...>& accessors,
                                  Body body,
                                  std::span<const Event> wait_list) {
  return EnqueueAccessorKernel(
      kernel_name, global_size, kLaunchGrain,
      static_cast<double>(global_size) * ops_per_item, accessors,
      std::move(body), wait_list);
}

template <typename... A, typename Body>
Event CommandQueue::EnqueueLaunch(const char* kernel_name, RowGroups groups,
                                  double ops_per_row,
                                  const std::tuple<A...>& accessors,
                                  Body body,
                                  std::span<const Event> wait_list) {
  static_assert(kLaunchGrain % kReduceGroupSize == 0);
  const std::size_t n = groups.groups();
  const double work_units =
      static_cast<double>(groups.rows) * ops_per_row +
      static_cast<double>(n * groups.segments * kReduceGroupSize);
  return EnqueueAccessorKernel(kernel_name, n,
                               kLaunchGrain / kReduceGroupSize, work_units,
                               accessors, std::move(body), wait_list);
}

template <typename... A, typename Body>
Event CommandQueue::EnqueueAccessorKernel(const char* kernel_name,
                                          std::size_t items,
                                          std::size_t grain,
                                          double work_units,
                                          const std::tuple<A...>& accessors,
                                          Body body,
                                          std::span<const Event> wait_list) {
  static_assert(sizeof...(A) > 0,
                "an accessor launch declares at least one accessor");
  // The declared set lives on the stack: the span form copies what the
  // hazard checker needs at enqueue.
  BufferAccess declared[sizeof...(A)];
  std::size_t count = 0;
  const auto pointers = std::apply(
      [&](const A&... a) {
        ((a.declared_ ? (void)(declared[count++] = a.access_) : (void)0),
         ...);
        return std::tuple(a.pointer_...);
      },
      accessors);
  auto leases = std::apply(
      [](const A&... a) {
        return std::array<std::shared_ptr<const void>, sizeof...(A)>{
            a.lease_...};
      },
      accessors);
  return EnqueueKernel(
      kernel_name, items, grain, work_units,
      [body = std::move(body), pointers, leases = std::move(leases)](
          std::size_t begin, std::size_t end) {
        std::apply([&](auto... p) { body(begin, end, p...); }, pointers);
      },
      std::span<const BufferAccess>(declared, count), wait_list);
}

template <typename T>
void Device::CopyToDevice(const T* host, std::size_t n, DeviceBuffer<T>* dst,
                          std::size_t offset) {
  default_queue_->EnqueueCopyToDevice(host, n, dst, offset).Wait();
}

template <typename T>
void Device::CopyToHost(const DeviceBuffer<T>& src, std::size_t offset,
                        std::size_t n, T* host) {
  default_queue_->EnqueueCopyToHost(src, offset, n, host).Wait();
}

/// \brief Sums `n` doubles starting at `offset` in a device-resident
/// buffer via the parallel binary reduction scheme of the paper (Horn, GPU
/// Gems 2) and returns the scalar on the host. Issues O(log n) kernel
/// launches plus one 8-byte read-back, blocking on the final read. The
/// input buffer is NOT modified — the estimator retains per-point
/// contributions for sample maintenance after reducing them (paper
/// Section 5.4).
double ReduceSum(Device* device, const DeviceBuffer<double>& buffer,
                 std::size_t offset, std::size_t n);

/// \brief Segmented binary-tree reduction: `buffer` holds `num_segments`
/// contiguous segments of `segment_size` doubles each, starting at
/// `offset`. Writes the per-segment sums into `out` at
/// `out_offset + segment`, leaving them DEVICE-resident (no read-back).
/// Blocks until the sums are resident (enqueue + wait).
///
/// Every reduction level folds all segments in ONE launch, so the launch
/// count is O(log segment_size) independent of the segment count — the
/// batched-evaluation primitive behind the engine's multi-query hot paths
/// (vs O(num_segments * log segment_size) launches for per-segment
/// ReduceSum calls). Each segment is folded by exactly the same group
/// tree as a standalone `ReduceSum` over the same values, so the two are
/// bit-identical. The input buffer is not modified. `out` may not alias
/// `buffer`.
void ReduceSumSegments(Device* device, const DeviceBuffer<double>& buffer,
                       std::size_t offset, std::size_t segment_size,
                       std::size_t num_segments, DeviceBuffer<double>* out,
                       std::size_t out_offset = 0);

/// \brief Asynchronous `ReduceSumSegments`: enqueues all reduction levels
/// on `queue` and returns the last level's event without blocking — the
/// primitive behind the enqueued gradient pass the paper hides behind
/// query execution (Section 5.5). Internal scratch buffers are kept alive
/// by the enqueued commands themselves; `buffer` and `out` must outlive
/// the returned event (see the lifetime discipline in command_queue.h).
Event EnqueueReduceSumSegments(CommandQueue* queue,
                               const DeviceBuffer<double>& buffer,
                               std::size_t offset, std::size_t segment_size,
                               std::size_t num_segments,
                               DeviceBuffer<double>* out,
                               std::size_t out_offset = 0);

/// \brief `EnqueueReduceSumSegments` over pooled scratch: the first level
/// leases `scratch`, so the caller may drop its handle once the levels
/// are enqueued. Over the group sums of a `RowGroups` producer (segment
/// size `RowGroups::groups()`) these are levels 2 and up of the tree a
/// reduction over the producer's rows would run, so the sums keep its
/// bits.
Event EnqueueReduceSumSegments(CommandQueue* queue,
                               const ScratchBuffer& scratch,
                               std::size_t offset, std::size_t segment_size,
                               std::size_t num_segments,
                               DeviceBuffer<double>* out,
                               std::size_t out_offset = 0);

}  // namespace fkde

#endif  // FKDE_PARALLEL_DEVICE_H_
