/// \file command_queue.h
/// \brief OpenCL-style asynchronous command queues and events.
///
/// The paper (Section 5.5) hides the adaptive-gradient and Karma
/// maintenance passes behind the database's query execution by submitting
/// them to an asynchronous OpenCL command queue and synchronizing on the
/// completion event only when the query feedback arrives. This header
/// reproduces that execution model:
///
///  * `CommandQueue` — an in-order queue of device commands. `Enqueue*`
///    calls return immediately; the queue's dispatcher thread, or the
///    waiting host, pops commands and executes kernel bodies on the
///    device's thread pool. Work nobody waits on yet really does run
///    concurrently with host code on the dispatcher.
///  * `Event` — a handle to one enqueued command. `Wait()` returns once
///    the command completed. While the command is incomplete and no
///    other thread is running a command of its queue, the waiting thread
///    runs the queue's front commands itself, up to and including its
///    own, so a blocking call never hands off to the dispatcher; only
///    when another thread holds the queue does it block. Commands accept
///    an event wait-list, which orders them after commands from other
///    queues (same-queue ordering is implicit: queues are in-order).
///
/// ## Modeled time: the two-timeline rule
///
/// Modeled cost (the Figure 7 y-axis) is derived from the *dependency
/// graph* of enqueued commands, not from a per-call `overlapped` flag.
/// The device keeps two modeled clocks:
///
///  * the **host timeline** `H` advances by the submission cost of every
///    enqueue (`launch_latency_s` / `transfer_latency_s` — the driver
///    round trip the host always pays), by `Device::AdvanceHostTime`
///    (modeling concurrent work such as the database executing the
///    query), and by stalls;
///  * the **device timeline** `D` carries the compute/transfer durations:
///    a command starts at `max(D, H, wait-list ends)` and occupies the
///    device until `start + duration`.
///
/// `Event::Wait()` advances `H` to the command's modeled end; any gap is
/// charged as a stall. Enqueued work whose completion the host only
/// observes after enough `AdvanceHostTime` has passed therefore costs
/// nothing but its submission latency — overlap emerges from the graph,
/// exactly like the constant Adaptive-vs-Heuristic offset of Figure 7.
/// `Device::ModeledSeconds()` reports the host-timeline advance excluding
/// `AdvanceHostTime` (i.e. the estimator's own overhead).
///
/// All modeled bookkeeping happens at *enqueue* time under the device
/// mutex, so modeled times and the transfer ledger are deterministic and
/// independent of real thread interleaving; only the actual execution is
/// asynchronous.
///
/// ## Lifetime discipline
///
/// As in OpenCL, the host must keep every buffer and staging area named
/// by an enqueued command alive until the command completes (`Wait()`,
/// `Finish()`, or destruction of the queue, which drains it). Owners of
/// device buffers that receive enqueued commands must `Finish()` the
/// queue before the buffers are destroyed. An event may outlive its
/// queue once complete; a queue must not be destroyed while another
/// thread is still inside `Wait()` on one of its events, since that
/// thread may be running the queue's commands.
///
/// ## Declared access-sets
///
/// Every command may declare the device-buffer byte ranges it touches as
/// a list of `BufferAccess` records. Transfers declare theirs
/// automatically (the typed enqueue wrappers know buffer, offset, and
/// element count). Kernels declare theirs with typed accessors
/// (`In`/`Out`/`InOut`/`InIf` in device.h, SYCL's accessor model): the
/// accessor-form `EnqueueLaunch` builds the access set from the same
/// accessor objects whose device pointers it hands the body, and a body
/// has no other way to reach device memory (`DeviceBuffer::device_data`
/// is private to this layer). So a declaration cannot omit a buffer the
/// body touches. When a `HazardChecker` (see hazard_checker.h) is
/// attached to the device, the declarations feed a command-DAG race
/// analysis; when none is attached they cost one branch per enqueue. A
/// kernel launched through the span form with an empty access-set is
/// *opaque*: it is assumed to potentially touch anything, which
/// suppresses use-before-initialization reports for buffers it may have
/// produced. Such a body cannot reach device memory; the form serves
/// empty launches and the hazard tests' declared-only commands.

#ifndef FKDE_PARALLEL_COMMAND_QUEUE_H_
#define FKDE_PARALLEL_COMMAND_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

namespace fkde {

class Device;
class CommandQueue;
template <typename T>
class DeviceBuffer;

/// \brief How a command touches a declared buffer range.
enum class AccessMode : std::uint8_t { kRead, kWrite, kReadWrite };

/// \brief One declared buffer access of an enqueued command: the byte
/// range `[offset_bytes, offset_bytes + length_bytes)` of the registered
/// device buffer `buffer_id` (see `DeviceBuffer::buffer_id()`), touched
/// with `mode`. A strided access repeats that range `runs` times,
/// `pitch_bytes` apart (a rectangular copy, or a kernel reading the live
/// prefix of every dim-major strip). Built by the typed accessors (or
/// the `Reads`/`Writes` helpers) in device.h rather than by hand.
struct BufferAccess {
  std::uint64_t buffer_id = 0;
  std::size_t offset_bytes = 0;
  std::size_t length_bytes = 0;
  AccessMode mode = AccessMode::kRead;
  std::size_t pitch_bytes = 0;
  std::size_t runs = 1;
};

/// \brief Hazard-checking mode of a device (see hazard_checker.h).
///  * `kOff`      — no checker attached; enqueues pay one null-branch.
///  * `kDeferred` — record everything, report via `Validate()`.
///  * `kStrict`   — abort with a diagnostic at the first hazard.
enum class HazardMode : std::uint8_t { kOff, kDeferred, kStrict };

/// \brief What kind of command a DAG node is (diagnostics + readback
/// tracking in the hazard checker).
enum class CommandKind : std::uint8_t { kKernel, kCopyToDevice, kCopyToHost };

/// \brief Occupancy counters of one in-order queue (see
/// `CommandQueue::Stats`). `total_commands` and `depth_high_water` are
/// bumped at enqueue time under the queue mutex, so they are
/// deterministic; `dispatcher_wait_s` is real (wall-clock) time the
/// queue sat starved, with nothing pending and nothing running — the
/// physical pipeline-starvation signal the streaming executor drives
/// toward zero. Time the dispatcher sits aside while a waiting host runs
/// the queue's commands is not starvation and is not counted; only
/// closed intervals count (an idle spell still open at `Stats()` is
/// not). `DeviceGroup::AggregateQueueStats` folds these per-device:
/// counts and wait time sum, the high-water mark takes the max.
struct CommandQueueStats {
  std::uint64_t total_commands = 0;  ///< Commands ever enqueued.
  std::size_t depth_high_water = 0;  ///< Max pending-queue depth seen.
  std::size_t pending = 0;           ///< Enqueued, not yet dispatched.
  double dispatcher_wait_s = 0.0;    ///< Wall time the queue starved.
};

/// Work items per thread-pool chunk of a kernel launch: large enough that
/// per-chunk scheduling cost stays negligible relative to the work.
inline constexpr std::size_t kLaunchGrain = 1024;

/// Work-group size of the binary-tree reductions, mirroring the OpenCL
/// implementation: every reduction level, and every group launch below,
/// folds runs of this many values.
inline constexpr std::size_t kReduceGroupSize = 256;

/// \brief The work items of a group launch (the `RowGroups` form of
/// `CommandQueue::EnqueueLaunch`): one per `kReduceGroupSize`-row group of
/// `rows` rows, the last group possibly short. Each work item adds its
/// rows into `segments` group sums, one per reduced segment — the first
/// level of the reduction tree, done by the producer itself.
struct RowGroups {
  std::size_t rows = 0;
  std::size_t segments = 1;

  std::size_t groups() const {
    return (rows + kReduceGroupSize - 1) / kReduceGroupSize;
  }
};

namespace internal {

/// Shared completion state of one enqueued command. Everything except
/// `executed` and `complete` is written once at enqueue time (before the
/// state is shared with other threads); those two are the only
/// cross-thread fields.
struct EventState {
  std::mutex mu;
  std::condition_variable cv;
  bool complete = false;
  /// The body returned; set just before the executing thread releases
  /// the command's captured resources, so releases during that teardown
  /// do not count the command as still touching them. Guarded by `mu`.
  bool executed = false;
  double modeled_end_s = 0.0;  ///< Absolute device-timeline completion.
  Device* device = nullptr;
  /// Owning queue, whose pending commands a waiter runs. Valid only
  /// while the command is incomplete (see the lifetime discipline).
  CommandQueue* queue = nullptr;
  std::uint64_t queue_id = 0;     ///< Owning queue (process-unique).
  std::uint64_t queue_index = 0;  ///< 1-based position within the queue.
  /// Vector clock over in-order queues: `{queue, index}` pairs, sorted by
  /// queue id; command u happens-before this command iff
  /// `clock[queue(u)] >= index(u)`. Filled only while a hazard checker is
  /// attached (empty otherwise).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hazard_clock;

  void MarkExecuted();
  void MarkComplete();
  /// Blocks until the command really finished, without touching the
  /// modeled clocks (used for wait-list dependencies, which are already
  /// accounted in the modeled start time).
  void WaitReal();
};

}  // namespace internal

/// \brief Completion handle of one enqueued command.
///
/// A default-constructed Event is "null": already complete, modeled end
/// 0. Events are cheap shared handles and may be copied freely.
class Event {
 public:
  Event() = default;

  /// True when this handle refers to an enqueued command.
  bool valid() const { return state_ != nullptr; }

  /// True when the command has finished executing (non-blocking probe).
  bool complete() const;

  /// Returns once the command completed, then advances the host modeled
  /// clock to the command's modeled end; any gap between the host clock
  /// and that end is charged as a host stall. While the command is
  /// incomplete and no other thread holds its queue, the calling thread
  /// runs the queue's front commands itself, stopping after this one;
  /// otherwise it blocks. No-op for a null event.
  void Wait() const;

  /// Modeled device-timeline completion time (absolute seconds since the
  /// device was created); 0 for a null event.
  double modeled_end_seconds() const;

 private:
  friend class CommandQueue;
  friend class HazardChecker;  // Reads the DAG metadata off state_.
  explicit Event(std::shared_ptr<internal::EventState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::EventState> state_;
};

/// \brief In-order asynchronous command queue of one device.
///
/// Commands execute in enqueue order, one at a time; `Enqueue*` never
/// blocks on device work (only on the modeled submission bookkeeping).
/// Whoever holds the queue — its dispatcher thread, or a host thread
/// waiting on one of its events — pops commands, resolves their
/// wait-lists, and runs kernel bodies on the device's thread pool. Both
/// run commands through the same `Execute`.
class CommandQueue {
 public:
  explicit CommandQueue(Device* device);
  /// `Finish()`es the queue (charging any remaining modeled stall to the
  /// host clock — destroying a queue with in-flight commands must not
  /// drop their modeled time), joins the dispatcher, and asserts the
  /// queue really drained.
  ~CommandQueue();

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  Device* device() const { return device_; }

  /// Process-unique queue id (diagnostics; stable for the queue's life).
  std::uint64_t id() const { return id_; }

  /// Enqueues a data-parallel kernel over `global_size` work items and
  /// returns immediately. `ops_per_item` is the modeled work-unit count
  /// per item. The functor receives a half-open index range [begin, end)
  /// and runs on the thread pool once the command is dispatched.
  /// `accesses` declares the device-buffer byte ranges the kernel touches
  /// (see the access-set discipline in the header comment); an empty span
  /// marks the kernel opaque.
  Event EnqueueLaunch(const char* kernel_name, std::size_t global_size,
                      double ops_per_item,
                      std::function<void(std::size_t, std::size_t)> body,
                      std::span<const BufferAccess> accesses = {},
                      std::span<const Event> wait_list = {});

  /// Accessor form (defined in device.h): `accessors` is a tuple of
  /// `In`/`Out`/`InOut`/`InIf` objects, and `body(begin, end, p...)`
  /// receives one device pointer per accessor, in tuple order — the
  /// first element each declares, or nullptr for a disabled `InIf`. The
  /// access set passed to the span form above is built from the same
  /// accessors on the stack. Scratch leases the accessors hold stay with
  /// the command until it retires.
  template <typename... A, typename Body>
  Event EnqueueLaunch(const char* kernel_name, std::size_t global_size,
                      double ops_per_item, const std::tuple<A...>& accessors,
                      Body body, std::span<const Event> wait_list = {});

  /// Group form of the accessor launch (defined in device.h): the body's
  /// [begin, end) is a range of `groups.groups()` row groups, not of
  /// rows. The pool hands out chunks that cover the same rows a row
  /// launch's chunks would, and the cost model charges `ops_per_row` per
  /// row plus `kReduceGroupSize` per group and segment — exactly what the
  /// producer and the reduction level it absorbs cost as two launches.
  template <typename... A, typename Body>
  Event EnqueueLaunch(const char* kernel_name, RowGroups groups,
                      double ops_per_row, const std::tuple<A...>& accessors,
                      Body body, std::span<const Event> wait_list = {});

  /// Enqueues a host->device transfer of `n` elements into `dst` at
  /// element `offset`. `host` must stay valid until the command
  /// completes. Zero-length transfers complete immediately and are
  /// neither metered nor charged.
  template <typename T>
  Event EnqueueCopyToDevice(const T* host, std::size_t n,
                            DeviceBuffer<T>* dst, std::size_t offset = 0,
                            std::span<const Event> wait_list = {});

  /// Enqueues a device->host transfer of `n` elements starting at
  /// `offset` into `host`, which must stay valid (and unread) until the
  /// command completes. Zero-length transfers complete immediately and
  /// are neither metered nor charged.
  template <typename T>
  Event EnqueueCopyToHost(const DeviceBuffer<T>& src, std::size_t offset,
                          std::size_t n, T* host,
                          std::span<const Event> wait_list = {});

  /// Rectangular transfers (OpenCL's `clEnqueueWriteBufferRect` /
  /// `clEnqueueReadBufferRect`): `strips` runs of `n` elements, packed
  /// back to back on the host (run k at `host + k * n`) and `pitch`
  /// elements apart on the device from element `offset` on. Metered and
  /// charged as ONE transfer of `strips * n` elements — exactly what a
  /// contiguous copy of that size costs. The contiguous copies above are
  /// the one-strip case.
  template <typename T>
  Event EnqueueCopyRectToDevice(const T* host, std::size_t n,
                                std::size_t strips, std::size_t pitch,
                                DeviceBuffer<T>* dst, std::size_t offset = 0,
                                std::span<const Event> wait_list = {});
  template <typename T>
  Event EnqueueCopyRectToHost(const DeviceBuffer<T>& src, std::size_t offset,
                              std::size_t n, std::size_t strips,
                              std::size_t pitch, T* host,
                              std::span<const Event> wait_list = {});

  /// Returns once every command enqueued so far has completed (running
  /// them on the calling thread as `Event::Wait()` does), and advances
  /// the host modeled clock past the last of them.
  void Finish();

  /// Snapshot of the queue's occupancy counters (see CommandQueueStats).
  CommandQueueStats Stats() const;

 private:
  friend class Event;  // Wait() runs the queue through RunUntil.

  struct Command {
    std::function<void()> run;
    std::vector<Event> deps;
    std::shared_ptr<internal::EventState> done;
  };

  /// Runs one popped command: waits for its wait-list, runs the body,
  /// marks it executed, drops the closure, then marks it complete — so
  /// captured resources (scratch handles) are released before any waiter
  /// can observe completion. An exception out of a body ends the process,
  /// on whichever thread ran it.
  static void Execute(Command& command) noexcept;

  /// Pops the front command and takes the queue (`running_`). Requires
  /// `mu_` held, a non-empty queue and nobody else holding it.
  Command TakeFrontLocked();
  /// Gives the queue back after `Execute`; opens a starvation interval
  /// when nothing is left pending. Requires `mu_` held.
  void ReleaseLocked();

  /// The waiting host's share of execution: while no other thread holds
  /// the queue, runs front commands on the calling thread up to and
  /// including the one at 1-based position `target_index`, then hands
  /// whatever is still pending back to the dispatcher.
  void RunUntil(std::uint64_t target_index);

  /// Largest modeled end among the wait-list events.
  static double MaxModeledEnd(std::span<const Event> wait_list);

  /// The lowering every kernel launch shares: books `work_units` on the
  /// device's modeled clocks and runs `body` over `items` work items in
  /// pool chunks of `grain`.
  Event EnqueueKernel(const char* kernel_name, std::size_t items,
                      std::size_t grain, double work_units,
                      std::function<void(std::size_t, std::size_t)> body,
                      std::span<const BufferAccess> accesses,
                      std::span<const Event> wait_list);

  /// `EnqueueKernel` for the accessor forms (defined in device.h): builds
  /// the access set and the body's pointers from `accessors`.
  template <typename... A, typename Body>
  Event EnqueueAccessorKernel(const char* kernel_name, std::size_t items,
                              std::size_t grain, double work_units,
                              const std::tuple<A...>& accessors, Body body,
                              std::span<const Event> wait_list);

  /// Type-erased transfer enqueue shared by every copy: `runs` runs of
  /// `run_bytes`, run k moved from `src + k * src_pitch` to
  /// `dst + k * dst_pitch` (bytes), booked as one transfer of
  /// `runs * run_bytes`. `device_access` names the device-buffer side of
  /// the transfer (the host side is untracked staging memory).
  Event EnqueueCopyBytes(void* dst, std::size_t dst_pitch, const void* src,
                         std::size_t src_pitch, std::size_t run_bytes,
                         std::size_t runs, bool to_device,
                         const BufferAccess& device_access,
                         std::span<const Event> wait_list);

  Event Push(std::function<void()> run, double modeled_end_s,
             CommandKind kind, const char* name,
             std::span<const BufferAccess> accesses,
             std::span<const Event> wait_list);

  void DispatchLoop();

  Device* device_;
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Wakes the dispatcher.
  std::deque<Command> pending_;
  /// A thread (dispatcher or waiting host) is executing a popped command.
  bool running_ = false;  ///< Guarded by mu_.
  bool shutdown_ = false;
  Event last_;
  std::uint64_t next_index_ = 0;       ///< Guarded by mu_.
  std::size_t depth_high_water_ = 0;   ///< Guarded by mu_.
  double dispatcher_wait_s_ = 0.0;     ///< Guarded by mu_.
  /// Start of the current starvation interval. Guarded by mu_.
  std::chrono::steady_clock::time_point idle_from_;
  std::thread dispatcher_;
};

}  // namespace fkde

#endif  // FKDE_PARALLEL_COMMAND_QUEUE_H_
