/// \file hazard_checker.h
/// \brief Static/dynamic hazard analysis of the device command DAG.
///
/// The estimator is correct only because its command stream keeps the
/// sample, gradient accumulators, and Karma bitmaps device-resident with
/// carefully ordered launches (paper §4/§5). Three async layers now
/// cooperate to preserve that ordering — in-order `CommandQueue`s,
/// cross-queue `Event` wait-lists, and the pooled scratch buffers whose
/// lifetime is carried by enqueued kernel bodies. This checker turns the
/// ordering invariants from "enforced by tests and TSan" into a proof
/// obligation on every run:
///
///  * every command declares its buffer access-sets at submission
///    (`BufferAccess` in command_queue.h; transfers auto-declare);
///  * the checker records the full command DAG — implicit in-order queue
///    edges plus explicit wait-list edges — as a vector clock per
///    command over the in-order queues (command u happens-before v iff
///    `clock(v)[queue(u)] >= index(u)`);
///  * each buffer keeps a byte-interval map whose intervals carry the
///    latest writer and readers *per queue* (on an in-order queue the
///    latest access subsumes all earlier ones by transitivity), so every
///    new access is checked against a bounded frontier, not a log.
///
/// Reported hazard classes:
///
///  * RAW / WAR / WAW between commands with no ordering path;
///  * use-after-free: an access declared on a released buffer, or a
///    buffer released while a recorded in-flight command references it;
///  * use-before-initialization: a read of bytes no prior command wrote
///    (suppressed when an *opaque* kernel — one launched with no declared
///    access-set — happens-before the reader, since it may have produced
///    the data);
///  * leaked scratch: a pooled scratch buffer parked back into the pool
///    while an in-flight command still references it;
///  * unwaited readback: a device→host copy whose completion the host
///    never observed via `Event::Wait()`/`Finish()` before `Validate()` —
///    the host may read torn staging memory.
///
/// Modes: `kStrict` aborts with a diagnostic (kernel names, queue ids,
/// the two unordered commands) at the first hazard; `kDeferred`
/// accumulates `HazardReport`s for `Validate()`. Attachment is per
/// device (`Device::EnableHazardChecking`) or shared across a
/// `DeviceGroup` so cross-device wait-list edges resolve; the
/// `HAZARD_STRICT=1` environment toggle attaches a strict checker to
/// every subsequently created device. With no checker attached the cost
/// is one null-pointer branch per enqueue.

#ifndef FKDE_PARALLEL_HAZARD_CHECKER_H_
#define FKDE_PARALLEL_HAZARD_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parallel/command_queue.h"

namespace fkde {

class HazardChecker;

namespace internal {

/// \brief Process-wide registry of live device buffers.
///
/// Every `DeviceBuffer` allocation registers here and receives a
/// monotone, never-reused id; releasing (destruction, or move-assignment
/// over an existing allocation) erases it and notifies attached
/// checkers. The monotone ids let the checker distinguish "freed" from
/// "never existed" and make use-after-free detection exact even after
/// the storage is recycled by the allocator.
class BufferRegistry {
 public:
  static BufferRegistry& Global();

  /// Registers a new allocation of `bytes` bytes; returns its id (>0).
  std::uint64_t Register(std::size_t bytes);

  /// Releases `id` and notifies observers (outside the registry lock).
  void Release(std::uint64_t id);

  /// True (and `*bytes` set, if non-null) when `id` is a live buffer.
  bool Lookup(std::uint64_t id, std::size_t* bytes) const;

  /// Ids in [1, watermark) have been allocated at some point.
  std::uint64_t watermark() const;

  void AddObserver(std::weak_ptr<HazardChecker> observer);

 private:
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::size_t> alive_;
  std::vector<std::weak_ptr<HazardChecker>> observers_;
};

}  // namespace internal

/// \brief Classes of hazards the checker reports.
enum class HazardKind : std::uint8_t {
  kRaw,              ///< Read not ordered after a write it observes.
  kWar,              ///< Write not ordered after a read of the range.
  kWaw,              ///< Two unordered writes to overlapping bytes.
  kUseAfterFree,     ///< Access to a released buffer, or release under
                     ///< an in-flight command.
  kUseBeforeInit,    ///< Read of bytes no prior command initialized.
  kLeakedScratch,    ///< Scratch parked while a command references it.
  kUnwaitedReadback, ///< Device→host copy never waited before Validate.
};

const char* HazardKindName(HazardKind kind);

/// \brief One detected hazard with an actionable diagnostic.
struct HazardReport {
  HazardKind kind = HazardKind::kRaw;
  std::uint64_t buffer_id = 0;  ///< 0 when not buffer-specific.
  /// Human-readable diagnostic: the hazard class, buffer id and byte
  /// range, and for races the two unordered commands (kernel/transfer
  /// name, queue id, queue index each).
  std::string message;
};

/// \brief Records the command DAG plus declared access-sets and detects
/// hazards eagerly. Thread-safe; one instance may be shared by all
/// devices of a group. Create via `Create` (registers with the global
/// buffer registry).
class HazardChecker : public std::enable_shared_from_this<HazardChecker> {
 public:
  static std::shared_ptr<HazardChecker> Create(HazardMode mode);

  HazardChecker(const HazardChecker&) = delete;
  HazardChecker& operator=(const HazardChecker&) = delete;

  HazardMode mode() const { return mode_; }

  /// Records one enqueued command: merges its happens-before clock from
  /// the queue tail and wait-list, stores it into `state->hazard_clock`,
  /// and checks every declared access against the buffer frontiers.
  /// Called by `CommandQueue::Push` under the queue lock.
  void RecordCommand(const std::shared_ptr<internal::EventState>& state,
                     CommandKind kind, const char* name,
                     std::span<const BufferAccess> accesses,
                     std::span<const Event> wait_list);

  /// The host observed this command's completion (`Event::Wait`); every
  /// command that happens-before it is now host-visible too.
  void OnEventWaited(const internal::EventState& state);

  /// Registry callback: `id` was released. Reports use-after-free if a
  /// recorded in-flight command still references it.
  void OnBufferReleased(std::uint64_t id);

  /// A pooled scratch buffer was parked back into the pool. Reports
  /// leaked scratch if a recorded in-flight command still references it.
  void OnScratchParked(std::uint64_t id);

  /// A parked scratch buffer was re-acquired: its contents are stale
  /// again, so its initialized-range set resets.
  void OnScratchReused(std::uint64_t id);

  /// Returns every accumulated report plus liveness findings computed
  /// now (currently: unwaited readbacks). Deferred mode only — strict
  /// mode already aborted at the first hazard.
  std::vector<HazardReport> Validate();

  /// Accumulated reports so far, without the liveness pass.
  std::vector<HazardReport> reports() const;

 private:
  explicit HazardChecker(HazardMode mode) : mode_(mode) {}

  /// One recorded access of a command to a buffer interval.
  struct CommandRef {
    std::uint64_t queue_id = 0;
    std::uint64_t index = 0;
    std::string name;  ///< Kernel or transfer name (diagnostics).
    /// Completion probe for free/park checks.
    std::shared_ptr<internal::EventState> state;
  };

  using Clock = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  /// Latest access per queue; bounded by the number of queues.
  using Frontier = std::vector<std::pair<std::uint64_t, CommandRef>>;

  /// Byte interval [begin, end) of a buffer with its access frontiers.
  struct Interval {
    std::size_t begin = 0;
    std::size_t end = 0;
    Frontier writers;
    Frontier readers;
  };

  struct BufferState {
    std::vector<Interval> intervals;  ///< Sorted, disjoint.
    /// Merged, sorted byte ranges some prior command wrote.
    std::vector<std::pair<std::size_t, std::size_t>> init;
  };

  static void MergeClock(Clock* clock, std::uint64_t queue,
                         std::uint64_t index);
  static std::uint64_t ClockAt(const Clock& clock, std::uint64_t queue);
  static bool HappensBefore(const CommandRef& ref, const Clock& clock);
  static bool SameCommands(const Frontier& x, const Frontier& y);

  /// Splits/creates intervals so [a, b) is covered exactly; returns the
  /// index range of the covering intervals.
  static std::pair<std::size_t, std::size_t> EnsureIntervals(
      std::vector<Interval>* intervals, std::size_t a, std::size_t b);

  /// Merges adjacent intervals in [lo, hi] with identical frontiers.
  static void CoalesceIntervalsLocked(std::vector<Interval>* intervals,
                                      std::size_t lo, std::size_t hi);

  void AddReportLocked(HazardKind kind, std::uint64_t buffer_id,
                       std::string message);
  void CheckAccessLocked(const BufferAccess& access, const Clock& clock,
                         const CommandRef& ref);
  /// (kind, queue, index) of the reports one access already made: the
  /// conflicting command of a race, the reader itself for
  /// use-before-init.
  using Reported =
      std::vector<std::tuple<HazardKind, std::uint64_t, std::uint64_t>>;
  /// Checks and records one contiguous run [a, b) of `access`.
  void CheckRangeLocked(const BufferAccess& access, std::size_t a,
                        std::size_t b, const Clock& clock,
                        const CommandRef& ref, BufferState* state,
                        Reported* reported);
  void ReportInFlightLocked(std::uint64_t id, HazardKind kind,
                            const char* what);
  /// True when an opaque kernel happens-before `clock`.
  bool OpaqueCoversLocked(const Clock& clock) const;
  static std::string DescribeRef(const CommandRef& ref);

  const HazardMode mode_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Clock> queue_tails_;
  /// Earliest opaque (no declared access-set) kernel per queue.
  std::map<std::uint64_t, std::uint64_t> opaque_min_index_;
  std::unordered_map<std::uint64_t, BufferState> buffers_;
  /// Device→host copies not yet covered by `waited_frontier_`.
  std::vector<CommandRef> readbacks_;
  /// Per-queue index up to which the host observed completion.
  std::map<std::uint64_t, std::uint64_t> waited_frontier_;
  std::vector<HazardReport> reports_;
};

}  // namespace fkde

#endif  // FKDE_PARALLEL_HAZARD_CHECKER_H_
