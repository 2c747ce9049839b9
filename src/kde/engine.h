/// \file engine.h
/// \brief Device-side KDE math: estimation, bandwidth gradient, Scott init.
///
/// `KdeEngine` is the computational core shared by every KDE estimator
/// variant (heuristic, SCV, batch-optimal, adaptive). It owns the
/// device-resident sample and bandwidth and implements, as device kernels:
///
///  * the range-selectivity estimate p̂_H(Ω) — eq. (2) with the per-point
///    closed form eq. (13), a parallel map over sample points followed by
///    the binary-tree reduction (paper Section 5.4, Figure 3 steps 1-4).
///    The map is a group producer: one work item per 256-row group
///    computes its rows and adds them into a group sum, which is the
///    tree's first level, so the separate reduction starts at level 2 (and
///    a shard of at most 256 rows needs none);
///  * the estimator gradient ∂p̂_H(Ω)/∂h_i — eq. (15)-(17), either
///    synchronously or ENQUEUED on the device's command queue so it runs
///    while the database executes the query (Section 5.5, steps 5-6:
///    `EnqueueGradientSlot`/`CollectGradientSlot` on a slot-ring slot);
///  * Scott's rule — eq. (3), via parallel sum / sum-of-squares reductions
///    and the variance identity (Section 5.2).
///
/// Per-point contributions are retained on the device after each estimate
/// so the Karma maintenance pass can reuse them (Section 5.6, step 9).
/// Per-point gradient partials are not: the gradient producer folds them
/// into group sums inside the work item that computes them.
///
/// ## Sharded execution
///
/// Over a multi-device sample (see sample.h) every hot path runs
/// per-shard: each shard's bounds upload, kernels, segmented reduction and
/// partial read-back are ENQUEUED back-to-back on that shard's own
/// in-order `CommandQueue` — so the N devices crunch concurrently — and
/// the host waits on all shards' read-back events, then folds the partial
/// sums/gradients (sums over shards are exact; each shard's reduction
/// keeps the single-device group tree). After every pass that ran alone
/// the engine feeds the measured per-shard busy time back into the
/// sample's rebalancer and applies any resulting migration before the
/// *next* pass, never while a slot-ring pass (below) is in flight. On a
/// single-shard sample the generic path
/// degenerates to exactly the pre-sharding launch/transfer sequence
/// (pinned by batch_launch_test).

#ifndef FKDE_KDE_ENGINE_H_
#define FKDE_KDE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "data/box.h"
#include "kde/kernel_backend.h"
#include "kde/kernels.h"
#include "kde/loss.h"
#include "kde/sample.h"
#include "parallel/device.h"

namespace fkde {

/// \brief KDE estimation engine over a device-resident sample.
class KdeEngine {
 public:
  /// Wraps an already-loaded sample. The engine keeps a pointer; the
  /// sample must outlive the engine. The bandwidth starts at `bandwidth`
  /// (arity dims(), positive and finite; one metered transfer per shard)
  /// or, when it is empty, at Scott's rule computed on the device — the
  /// build path. A snapshot restore passes the saved bandwidth, so it
  /// runs no Scott pass.
  KdeEngine(DeviceSample* sample, KernelType kernel,
            std::span<const double> bandwidth = {});

  /// Drains every shard's device queue so no enqueued command outlives
  /// the engine's buffers (command_queue.h lifetime discipline).
  ~KdeEngine();

  std::size_t dims() const { return sample_->dims(); }
  std::size_t sample_size() const { return sample_->size(); }
  KernelType kernel() const { return kernel_; }
  DeviceSample* sample() { return sample_; }
  /// Primary (shard-0) device.
  Device* device() const { return sample_->device(); }
  std::size_t num_shards() const { return shards_.size(); }

  /// Current (diagonal) bandwidth, host copy.
  const std::vector<double>& bandwidth() const { return bandwidth_; }

  /// Sets the bandwidth; values must be positive and finite. The new
  /// bandwidth is transferred to every shard's device (one metered
  /// 8d-byte transfer each — the bandwidth is replicated, not sharded).
  /// Blocking, so the host-side copy in `bandwidth_` may be reused as the
  /// transfer staging without lifetime hazards; at 8d bytes the wait is a
  /// no-op on the modeled timeline.
  Status SetBandwidth(std::span<const double> bandwidth);

  /// Variable-KDE extension (paper Section 8): installs per-point
  /// bandwidth scale factors, so point i smooths with h_j * scale[i] in
  /// every dimension j (Terrell & Scott's adaptive kernel model). Scales
  /// are indexed by GLOBAL sample slot, must be positive and of arity
  /// sample_size(). One metered transfer per shard; a host copy is kept
  /// so shard migration can re-scatter the scales.
  Status SetPointScales(std::span<const double> scales);

  /// Removes per-point scales (back to the fixed-bandwidth model).
  void ClearPointScales() { has_scales_ = false; }
  bool has_point_scales() const { return has_scales_; }

  /// Host copy of the per-point scales, global-slot indexed (snapshot
  /// serialization). Meaningful only while `has_point_scales()`.
  const std::vector<double>& point_scales_host() const {
    return scales_host_;
  }

  /// Computes Scott's rule (eq. 3) from the device-resident sample via
  /// parallel reductions: h_i = s^(-1/(d+4)) * sigma_i. Per-shard moment
  /// kernels run concurrently; the per-dimension sums fold on the host.
  std::vector<double> ComputeScottBandwidth();

  /// Estimates the selectivity of `box` (eq. 2) on a slot of the ring:
  /// `BeginEstimateSlot`, `FinishEstimateSlot`, `ReleaseSlot`. Transfers
  /// the query bounds in, runs the contribution kernel and reduction on
  /// every shard, transfers the per-shard scalar sums out and folds them.
  /// Per-point contributions stay on each shard's device.
  double Estimate(const Box& box);

  /// Estimate plus the gradient ∂p̂/∂h_i (eq. 17), fully synchronous —
  /// the bandwidth-optimization path. `gradient->size()` becomes dims().
  /// For the adaptive feedback loop use `EnqueueGradientSlot` instead,
  /// which hides the gradient work behind query execution.
  double EstimateWithGradient(const Box& box, std::vector<double>* gradient);

  /// Batched estimation: uploads all `boxes.size()` query bounds in ONE
  /// transfer per shard, runs one fused contribution kernel over the
  /// s_i × m grid per shard (each work item owns a sample point and loops
  /// over a query tile), reduces all segments with the segmented
  /// reduction, reads each shard's m partial sums back in one transfer
  /// and folds them — O(1) launches in the query count instead of the
  /// ~m·log(s) launches of an Estimate loop. On one shard this is
  /// bit-identical to per-query `Estimate` calls. `estimates.size()` must
  /// equal `boxes.size()`. With m == 0 the call is a metered no-op: no
  /// upload, no launch, no read-back. Does not touch the retained
  /// single-query contributions or `last_estimate()`.
  void EstimateBatch(std::span<const Box> boxes, std::span<double> estimates);

  /// Batched estimate + per-query bandwidth gradients (eq. 17 via the
  /// same prefix/suffix-product scheme as `EstimateWithGradient`).
  /// `gradients` is query-major with arity boxes.size() * dims():
  /// gradients[q * dims() + k] = ∂p̂_q/∂h_k. On one shard results are
  /// bit-identical to per-query `EstimateWithGradient` calls.
  void EstimateBatchWithGradient(std::span<const Box> boxes,
                                 std::span<double> estimates,
                                 std::span<double> gradients);

  /// Fused batched objective evaluation for bandwidth optimization
  /// (problem (5)): estimates all boxes, evaluates `loss` against
  /// `truths`, and returns the MEAN loss over the batch. When `gradient`
  /// is non-null it receives the gradient of the mean loss w.r.t. the
  /// bandwidth (arity dims()). On one shard the per-query ∂L/∂p̂ factors
  /// of eq. (14) are folded into a device-side reduction pass, so the
  /// whole evaluation costs O(1) launches, one descriptor upload (bounds
  /// + truths) and one (d+1)-double read-back — instead of the ~m·(d+2)
  /// launches and m·(d+1) read-backs of a per-query loop. Across shards
  /// the per-query estimates/gradients fold on the host first (same math,
  /// summation order differs only across shard boundaries).
  double EstimateBatchLoss(std::span<const Box> boxes,
                           std::span<const double> truths, LossType loss,
                           double lambda, std::vector<double>* gradient);

  /// Selectivity of `box` at the last Estimate/EstimateWithGradient call
  /// (or the estimate installed by `SetFeedbackContext`).
  double last_estimate() const { return last_estimate_; }

  // -- Slot ring (Section 5.5 pipelining, N queries deep) ---------------
  //
  // Every per-query pass runs on a ring of descriptor slots per shard.
  // `BeginEstimateSlot(box)` takes the lowest free slot and enqueues the
  // query's full estimate chain without waiting; the slot stays in flight
  // — holding the query's bounds, contributions and pending gradient —
  // until `ReleaseSlot`. One query at a time (the classic Listing-1
  // cycle) keeps slot 0 busy; a streamed window of N keeps N slots busy,
  // so the chain for query k+1 enters the in-order queues while query
  // k's gradient and Karma feedback are still pending on the device. The
  // ring grows when every slot is in flight; `TrimRing` shrinks it. Every
  // command touches only its slot's buffers, so the per-device in-order
  // queue is the only ordering needed: reusing a released slot whose
  // commands are still queued is a WAR hazard resolved by queue order,
  // which the strict hazard checker verifies. Modeled time never feeds
  // back into the math, so a streamed schedule produces bitwise the
  // estimates of its fully-drained replay.

  /// Admits `box`: takes the lowest free slot, growing every shard's
  /// ring when all are in flight, and enqueues the full estimate chain on
  /// it — bounds upload, contribution kernel, reduction, scalar read-back
  /// — without waiting. Returns the slot; `FinishEstimateSlot` collects.
  /// An admission onto an empty ring is the only pass in flight, so on
  /// multi-shard samples it first applies any due rebalance and then
  /// feeds the chain's busy time (booked at enqueue) to the rebalancer
  /// EWMA. Admissions behind in-flight slots do neither: a migration
  /// would permute rows under enqueued chains and make results depend on
  /// where in a stream it landed.
  std::size_t BeginEstimateSlot(const Box& box);

  /// Waits on slot `slot`'s per-shard read-back events, folds the
  /// partial sums and returns the estimate (also installed, with the
  /// slot's contributions, as the feedback context). Requires a matching
  /// `BeginEstimateSlot`.
  double FinishEstimateSlot(std::size_t slot);

  /// Enqueues the Section 5.5 gradient pass (steps 5-6) for the bounds
  /// resident in slot `slot` without blocking: per shard, the fused
  /// gradient producer, ONE segmented reduction over its d dim-major
  /// segments of group sums, and a d-double read-back. The devices
  /// crunch while the database executes the query. A still-pending
  /// earlier gradient on the slot is superseded. Collect with
  /// `CollectGradientSlot`.
  void EnqueueGradientSlot(std::size_t slot);

  /// Waits slot `slot`'s pending gradient and folds ∂p̂/∂h into
  /// `gradient` (arity dims()).
  void CollectGradientSlot(std::size_t slot, std::vector<double>* gradient);

  /// Returns slot `slot` to the free list. Its enqueued commands may
  /// still run: the next chain admitted onto it queues behind them.
  void ReleaseSlot(std::size_t slot);

  /// Slots currently held between `BeginEstimateSlot` and `ReleaseSlot`.
  std::size_t slots_in_flight() const;

  /// Shrinks the ring back to one slot so a deep window's slots do not
  /// stay resident after a streamed burst. Drains every shard queue first
  /// (released slots may still have commands queued). Requires no slot in
  /// flight.
  void TrimRing();

  /// Points the feedback consumers at slot `slot`: `shard_contributions`
  /// returns that slot's retained contributions and `last_estimate()`
  /// returns `estimate` (the raw estimate recorded when the slot's query
  /// was delivered), so the Karma pass reads the state of the query the
  /// feedback belongs to — not whichever query streamed last.
  void SetFeedbackContext(std::size_t slot, double estimate);

  /// Per-point contributions p̂^(i)(Ω) of the last estimate on shard 0 —
  /// the whole sample for single-shard engines (for the Karma pass).
  /// Valid for shard-0's row count.
  const DeviceBuffer<double>& contributions() const {
    return shards_[0].slots[feedback_slot_].contributions;
  }
  DeviceBuffer<double>* mutable_contributions() {
    return &shards_[0].slots[feedback_slot_].contributions;
  }

  /// Per-point contributions retained on shard `shard` (local-row
  /// indexed, sample->shard_size(shard) live entries) — the feedback
  /// slot's buffer.
  const DeviceBuffer<double>& shard_contributions(std::size_t shard) const {
    return shards_[shard].slots[feedback_slot_].contributions;
  }

  /// Kernel backend shard `shard` runs, resolved at construction: simd
  /// where the CPU has AVX2 and FKDE_KERNEL_BACKEND does not force
  /// scalar, whatever its profile asks for. The precision is float only
  /// on a simd profile asking for float (or FKDE_KERNEL_PRECISION=float
  /// under one); every other shard keeps double math.
  KernelBackend shard_backend(std::size_t shard) const {
    return shards_[shard].backend;
  }
  KernelPrecision shard_precision(std::size_t shard) const {
    return shards_[shard].precision;
  }

  /// Model footprint: sample payload + bandwidth + retained contributions.
  /// Deliberately EXCLUDES transient evaluation scratch — the batched
  /// query descriptors, tile contribution/partial buffers and reduction
  /// scratch — because those are pooled per-device scratch acquired only
  /// while a batched evaluation runs and bounded by the query tile, not
  /// the model: the paper's d·4kB memory budget (Section 6.1.1) covers
  /// what the model must keep resident between queries.
  std::size_t ModelBytes() const;

  /// Device bytes held by the slot ring across all shards: per slot the
  /// bounds, contributions and reduced sums — the same for a slot that
  /// ran a gradient pass as for an estimate-only one. Group sums live in
  /// pooled scratch, not in the slot.
  std::size_t SlotBytes() const;

 private:
  /// One in-flight query's device state on one shard: the bounds it
  /// queried, its retained contributions, its reduced sums and the
  /// read-back staging its enqueued chain writes into. Buffers are
  /// capacity-sized so shard growth under rebalancing never reallocates,
  /// and slots live in a deque so ring growth never moves them (enqueued
  /// commands capture raw device and staging pointers).
  struct ShardSlot {
    DeviceBuffer<double> bounds_dev;     // 2d doubles: l_0..l_d-1,u_0..
    DeviceBuffer<double> contributions;  // capacity doubles.
    DeviceBuffer<double> grad_sums;      // d reduced gradient sums.
    DeviceBuffer<double> est_sum;        // 1 reduced contribution sum.
    std::vector<double> grad_staging;    // d-double read-back staging.
    double est_staging = 0.0;            // 1-double read-back staging.
    Event est_done;                      // Estimate read-back handle.
    Event pending_gradient;              // Held until feedback arrives.
  };

  /// Per-shard device state shared by every slot.
  struct EngineShard {
    Device* device = nullptr;
    /// Resolved kernel backend/precision for this shard's fused loops.
    KernelBackend backend = KernelBackend::kScalar;
    KernelPrecision precision = KernelPrecision::kDouble;
    DeviceBuffer<double> bandwidth_dev;  // d doubles (replicated).
    DeviceBuffer<float> point_scales;    // capacity floats (variable KDE).
    std::deque<ShardSlot> slots;         // Ring of in-flight query state.
  };

  /// Host-side state of one ring slot, shared by every shard.
  struct RingSlot {
    /// Bounds staging for the enqueued uploads. Outlives the upload: the
    /// slot is only re-staged after its previous query was delivered.
    std::vector<double> bounds_staging;
    bool in_flight = false;
  };

  /// Takes the lowest free ring slot, growing every shard's ring by one
  /// slot when all are in flight.
  std::size_t AcquireSlot();

  /// Pre-pass housekeeping on multi-shard samples: applies any due
  /// rebalance and re-scatters the point scales if rows migrated. Must
  /// run before the first enqueue of a pass; a no-op while any ring slot
  /// is in flight.
  void PrepareForPass();

  /// Snapshots per-shard `DeviceBusyTicks` into `out`.
  void SnapshotBusy(std::vector<BusyTicks>* out) const;

  /// Feeds each shard's busy time since `busy_before` into the sample's
  /// throughput EWMA.
  void ObservePass(const std::vector<BusyTicks>& busy_before);

  /// Stages `box` bounds into `staging` (2d doubles).
  void StageBounds(const Box& box, double* staging) const;

  /// The pointer-free kernel-backend view of shard `shard` (resolved
  /// backend/precision, kernel, dims, strip stride), captured by the
  /// fused kernel bodies; each body binds it to the buffers its
  /// accessors hand it via `kb::ShardKernelView::Over`.
  kb::ShardKernelView KernelView(std::size_t shard) const;

  /// The reads every fused contribution kernel of shard `shard` declares,
  /// in the order its body receives them: the live prefix of each sample
  /// strip, the bandwidth, and the point scales when the model has them.
  std::tuple<In<float>, In<double>, InIf<float>> ShardReads(
      std::size_t shard) const;

  /// Enqueues, on shard `shard`, the fused contribution+gradient group
  /// producer for the bounds resident in slot `slot`'s bounds_dev and the
  /// reduction of its gradient group sums into the slot's grad_sums —
  /// and, `with_estimate`, of its contribution group sums into est_sum
  /// (shared by EstimateWithGradient and EnqueueGradientSlot).
  void EnqueueGradientPass(std::size_t shard, std::size_t slot,
                           bool with_estimate);

  /// Queries per scratch tile for an m-query batch over `shard_rows`
  /// sample rows: bounded so the tile contribution/partial buffers stay
  /// within a fixed byte budget.
  std::size_t BatchTile(std::size_t queries, std::size_t shard_rows,
                        bool with_partials) const;

  /// Per-shard batched pipeline state: pooled scratch plus read-back
  /// staging, alive until the shard's events are waited on.
  struct BatchShard {
    ScratchBuffer bounds;    // m*(2d+1) descriptor doubles.
    ScratchBuffer contrib;   // tile*s_i contributions.
    ScratchBuffer partials;  // tile*d*s_i gradient partials.
    ScratchBuffer est;       // m per-query partial sums.
    ScratchBuffer grad;      // m*d per-query partial gradients.
    std::vector<double> est_staging;
    std::vector<double> grad_staging;
    Event done;
  };

  /// Shared core of the batched paths: enqueues, per shard, the
  /// descriptor upload (from `descriptors`, m*2d bounds doubles plus
  /// `truths_count` trailing truths) and the tiled contribution kernels
  /// (the fused contribution+partials kernel when `with_partials`) with
  /// their segmented estimate reductions; when `reduce_gradients` also
  /// reduces each tile's t*d partial segments into per-query gradients.
  /// `fold` (optional, single-shard loss path) runs after each tile with
  /// (tile_start, tile_size, shard state). When `enqueue_readbacks`, the
  /// per-query sums (and gradients) are read back into the staging
  /// vectors; the returned states hold the final events, NOT yet waited
  /// on.
  std::vector<BatchShard> EnqueueBatchPipelines(
      std::span<const Box> boxes, const std::vector<double>& descriptors,
      std::size_t truths_count, bool with_partials, bool reduce_gradients,
      const std::function<void(std::size_t, std::size_t, BatchShard&)>& fold,
      bool enqueue_readbacks);

  /// Stages all query bounds (lowers-then-uppers per query) with `truths`
  /// packed behind them — the per-shard upload image.
  std::vector<double> StageBatchDescriptors(
      std::span<const Box> boxes, std::span<const double> truths) const;

  /// Scatters `scales_host_` into each shard's local order and uploads
  /// (one metered transfer per non-empty shard); records the migration
  /// epoch the scatter reflects.
  void UploadScales();

  DeviceSample* sample_;
  KernelType kernel_;
  std::vector<double> bandwidth_;  // Host copy.
  std::vector<EngineShard> shards_;
  std::vector<double> scales_host_;  // Global-slot point scales.
  std::uint64_t scales_epoch_ = 0;   // Sample migration epoch at upload.
  std::deque<RingSlot> ring_;
  bool has_scales_ = false;
  /// Slot whose contributions/estimate the feedback consumers (Karma)
  /// currently see.
  std::size_t feedback_slot_ = 0;
  double last_estimate_ = 0.0;

  static constexpr std::size_t kMaxDims = 32;
  /// Byte cap for one tile's contribution+partial scratch; bounds device
  /// memory for large m×s batches (tiles add O(1) launches each).
  static constexpr std::size_t kMaxBatchTileBytes = 64ull << 20;
};

}  // namespace fkde

#endif  // FKDE_KDE_ENGINE_H_
