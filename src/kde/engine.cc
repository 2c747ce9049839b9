#include "kde/engine.h"

#include <algorithm>
#include <cmath>

namespace fkde {

namespace {

// A group producer (the `RowGroups` launch form) writes one sum per group
// and segment. When the shard is a single group those are the segment
// sums themselves and go straight into the output, with no reduction
// after them; otherwise they go to pooled scratch, and a segmented
// reduction over it runs levels 2 and up of the tree into the output.

/// The group-sum scratch of `groups`, or null when the producer writes
/// the output itself.
ScratchBuffer AcquireGroupSums(Device* device, RowGroups groups) {
  if (groups.groups() == 1) return nullptr;
  return device->AcquireScratch(groups.segments * groups.groups());
}

/// The producer's group-sum accessor: `group_sums` (leased to the
/// command) when there is one, else the `groups.segments` sums of `out`.
Out<double> GroupSumsOut(const ScratchBuffer& group_sums, RowGroups groups,
                         DeviceBuffer<double>* out) {
  if (group_sums == nullptr) return Out(*out, 0, groups.segments);
  return Out(group_sums, 0, groups.segments * groups.groups());
}

/// Levels 2 and up: folds `group_sums` into `out`; nothing to do when the
/// producer wrote `out` itself.
void ReduceGroups(CommandQueue* queue, const ScratchBuffer& group_sums,
                  RowGroups groups, DeviceBuffer<double>* out) {
  if (group_sums == nullptr) return;
  EnqueueReduceSumSegments(queue, group_sums, 0, groups.groups(),
                           groups.segments, out);
}

}  // namespace

KdeEngine::KdeEngine(DeviceSample* sample, KernelType kernel,
                     std::span<const double> bandwidth)
    : sample_(sample), kernel_(kernel) {
  // The backend's fused loops size their stack arrays to the same ceiling.
  static_assert(kMaxDims == kb::kMaxDims);
  FKDE_CHECK(sample != nullptr);
  FKDE_CHECK_MSG(!sample->empty(), "engine requires a loaded sample");
  FKDE_CHECK_MSG(sample->dims() <= kMaxDims, "dims beyond engine limit");
  const std::size_t d = sample_->dims();
  shards_.resize(sample_->num_shards());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    sh.device = sample_->shard_device(si);
    // The body that executes depends on the CPU alone: every double body
    // the vector backend has is bitwise equal to scalar, so each shard
    // runs it where AVX2 is present, unless FKDE_KERNEL_BACKEND=scalar
    // forces the fallback. The profile's backend request only gates
    // float lane math (and, through SimdCpu's throughput, modeled time).
    const DeviceProfile& profile = sh.device->profile();
    sh.backend = ResolveKernelBackend(KernelBackend::kSimd);
    sh.precision =
        ResolveKernelBackend(profile.kernel_backend) == KernelBackend::kSimd
            ? ResolveKernelPrecision(profile.kernel_precision)
            : KernelPrecision::kDouble;
    sh.bandwidth_dev = sh.device->CreateBuffer<double>(d);
    sh.point_scales = sh.device->CreateBuffer<float>(sample_->capacity());
  }
  // One slot up front, so the feedback context always names a real slot;
  // admissions grow the ring from there.
  ReleaseSlot(AcquireSlot());
  if (bandwidth.empty()) {
    FKDE_CHECK_OK(SetBandwidth(ComputeScottBandwidth()));
  } else {
    FKDE_CHECK_OK(SetBandwidth(bandwidth));
  }
}

std::size_t KdeEngine::AcquireSlot() {
  std::size_t slot = 0;
  while (slot < ring_.size() && ring_[slot].in_flight) ++slot;
  if (slot == ring_.size()) {
    const std::size_t d = sample_->dims();
    const std::size_t capacity = sample_->capacity();
    ring_.emplace_back().bounds_staging.resize(2 * d);
    for (EngineShard& sh : shards_) {
      ShardSlot& sl = sh.slots.emplace_back();
      sl.bounds_dev = sh.device->CreateBuffer<double>(2 * d);
      // Capacity-sized so rebalancing growth never reallocates under
      // enqueued commands that captured the raw device pointers.
      sl.contributions = sh.device->CreateBuffer<double>(capacity);
      sl.grad_sums = sh.device->CreateBuffer<double>(d);
      sl.est_sum = sh.device->CreateBuffer<double>(1);
      // Sized once so enqueued gradient read-backs never race a
      // reallocation.
      sl.grad_staging.resize(d);
    }
  }
  ring_[slot].in_flight = true;
  return slot;
}

void KdeEngine::ReleaseSlot(std::size_t slot) {
  FKDE_CHECK_MSG(slot < ring_.size() && ring_[slot].in_flight,
                 "released a slot that is not in flight");
  ring_[slot].in_flight = false;
}

void KdeEngine::TrimRing() {
  FKDE_CHECK_MSG(slots_in_flight() == 0, "trimming a ring in flight");
  // Drain before freeing: queued commands hold raw device pointers into
  // the released slots' buffers.
  for (EngineShard& sh : shards_) sh.device->default_queue()->Finish();
  for (EngineShard& sh : shards_) sh.slots.resize(1);
  ring_.resize(1);
  feedback_slot_ = 0;
}

std::size_t KdeEngine::slots_in_flight() const {
  return static_cast<std::size_t>(std::count_if(
      ring_.begin(), ring_.end(),
      [](const RingSlot& slot) { return slot.in_flight; }));
}

KdeEngine::~KdeEngine() {
  // Commands enqueued through this engine capture pointers into its
  // device buffers; drain every shard's queue before the buffers go away.
  for (EngineShard& sh : shards_) sh.device->default_queue()->Finish();
}

Status KdeEngine::SetBandwidth(std::span<const double> bandwidth) {
  if (bandwidth.size() != dims()) {
    return Status::InvalidArgument("bandwidth arity mismatch");
  }
  for (double h : bandwidth) {
    if (!(h > 0.0) || !std::isfinite(h)) {
      return Status::InvalidArgument("bandwidth entries must be positive");
    }
  }
  bandwidth_.assign(bandwidth.begin(), bandwidth.end());
  for (EngineShard& sh : shards_) {
    sh.device->CopyToDevice(bandwidth_.data(), bandwidth_.size(),
                            &sh.bandwidth_dev);
  }
  return Status::OK();
}

Status KdeEngine::SetPointScales(std::span<const double> scales) {
  if (scales.size() != sample_size()) {
    return Status::InvalidArgument("point scale arity mismatch");
  }
  for (double scale : scales) {
    if (!(scale > 0.0) || !std::isfinite(scale)) {
      return Status::InvalidArgument("point scales must be positive");
    }
  }
  scales_host_.assign(scales.begin(), scales.end());
  has_scales_ = true;
  UploadScales();
  return Status::OK();
}

void KdeEngine::UploadScales() {
  // Scatter the global-slot scales into each shard's local order (one
  // metered transfer per shard).
  std::vector<float> staging;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const std::size_t rows = sample_->shard_size(si);
    if (rows == 0) continue;
    staging.resize(rows);
    for (std::size_t local = 0; local < rows; ++local) {
      staging[local] =
          static_cast<float>(scales_host_[sample_->GlobalSlot(si, local)]);
    }
    shards_[si].device->CopyToDevice(staging.data(), rows,
                                     &shards_[si].point_scales);
  }
  scales_epoch_ = sample_->migration_epoch();
}

void KdeEngine::PrepareForPass() {
  if (shards_.size() < 2) return;
  // With slot chains in flight a migration would permute rows under
  // enqueued commands, and even a safe one would make results depend on
  // where in the stream the drain landed — breaking the
  // streamed-equals-replay bitwise contract.
  if (slots_in_flight() > 0) return;
  sample_->MaybeRebalance();
  // Migration permutes local rows; the per-shard scale buffers are
  // local-indexed and must follow.
  if (has_scales_ && scales_epoch_ != sample_->migration_epoch()) {
    UploadScales();
  }
}

void KdeEngine::SnapshotBusy(std::vector<BusyTicks>* out) const {
  out->resize(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    (*out)[si] = shards_[si].device->DeviceBusyTicks();
  }
}

void KdeEngine::ObservePass(const std::vector<BusyTicks>& busy_before) {
  if (shards_.size() < 2) return;
  std::vector<double> deltas(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    deltas[si] = BusySecondsBetween(busy_before[si],
                                    shards_[si].device->DeviceBusyTicks());
  }
  sample_->ObserveShardSeconds(deltas);
}

std::vector<double> KdeEngine::ComputeScottBandwidth() {
  const std::size_t s = sample_size();
  const std::size_t d = dims();

  // Per shard: one group producer folds x and x^2 of every dimension into
  // 2d segments of group sums — the first reduction level — and one
  // segmented reduction over them yields the shard's 2d sums in a single
  // read-back (on a shard of one group the producer writes the sums
  // itself); all shards run concurrently on their own queues and the
  // per-dimension moments fold on the host (sums over shards are exact).
  // sigma^2 = E[x^2] - E[x]^2 per dimension (Section 5.2). The launch
  // count is independent of d.
  std::vector<ScratchBuffer> sums(shards_.size());
  std::vector<std::vector<double>> host_sums(shards_.size());
  std::vector<Event> done(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    const std::size_t rows = sample_->shard_size(si);
    if (rows == 0) continue;
    CommandQueue* queue = sh.device->default_queue();
    const RowGroups groups{rows, 2 * d};
    sums[si] = sh.device->AcquireScratch(2 * d);
    const ScratchBuffer group_sums = AcquireGroupSums(sh.device, groups);
    host_sums[si].resize(2 * d);
    // Only the sample is declared: kb::MomentsGroups reads raw sample
    // values, and the bandwidth it derives is not initialized yet.
    const kb::ShardKernelView view = KernelView(si);
    queue->EnqueueLaunch(
        "scott_moments", groups, 2.0 * static_cast<double>(d),
        std::tuple(In(sample_->shard_buffer(si), 0, rows, sample_->stride(), d),
                   GroupSumsOut(group_sums, groups, sums[si].get())),
        [view, rows](std::size_t begin, std::size_t end, const float* x,
                     double* out) {
          kb::MomentsGroups(view.Over(x), out, rows, begin, end);
        });
    ReduceGroups(queue, group_sums, groups, sums[si].get());
    done[si] = queue->EnqueueCopyToHost(*sums[si], 0, 2 * d,
                                        host_sums[si].data());
  }
  std::vector<double> total(2 * d, 0.0);
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    if (!done[si].valid()) continue;
    done[si].Wait();
    for (std::size_t k = 0; k < 2 * d; ++k) total[k] += host_sums[si][k];
  }

  std::vector<double> bandwidth(d);
  const double factor =
      std::pow(static_cast<double>(s), -1.0 / (static_cast<double>(d) + 4.0));
  for (std::size_t dim = 0; dim < d; ++dim) {
    const double sum = total[2 * dim];
    const double sum_sq = total[2 * dim + 1];
    const double mean = sum / static_cast<double>(s);
    const double variance =
        std::max(sum_sq / static_cast<double>(s) - mean * mean, 0.0);
    double sigma = std::sqrt(variance);
    // Degenerate attribute (all sampled values equal): fall back to a
    // tiny positive bandwidth so the estimator stays well-defined.
    if (sigma <= 0.0) sigma = 1e-6 * std::max(std::abs(mean), 1.0);
    bandwidth[dim] = factor * sigma;
  }
  return bandwidth;
}

void KdeEngine::StageBounds(const Box& box, double* staging) const {
  FKDE_CHECK_MSG(box.dims() == dims(), "query dims mismatch");
  for (std::size_t j = 0; j < dims(); ++j) {
    staging[j] = box.lower(j);
    staging[dims() + j] = box.upper(j);
  }
}

kb::ShardKernelView KdeEngine::KernelView(std::size_t shard) const {
  const EngineShard& sh = shards_[shard];
  kb::ShardKernelView view;
  view.backend = sh.backend;
  view.precision = sh.precision;
  view.kernel = kernel_;
  view.d = dims();
  view.stride = sample_->stride();
  return view;
}

std::tuple<In<float>, In<double>, InIf<float>> KdeEngine::ShardReads(
    std::size_t shard) const {
  const EngineShard& sh = shards_[shard];
  const std::size_t rows = sample_->shard_size(shard);
  // The live prefix of every strip.
  return {In(sample_->shard_buffer(shard), 0, rows, sample_->stride(),
             dims()),
          In(sh.bandwidth_dev, 0, dims()),
          InIf(has_scales_, sh.point_scales, 0, rows)};
}

double KdeEngine::Estimate(const Box& box) {
  const std::size_t slot = BeginEstimateSlot(box);
  const double estimate = FinishEstimateSlot(slot);
  ReleaseSlot(slot);
  return estimate;
}

std::size_t KdeEngine::BeginEstimateSlot(const Box& box) {
  const std::size_t d = dims();
  // Only an admission onto an empty ring may rebalance, and only its
  // busy delta is attributable to one pass.
  const bool alone = slots_in_flight() == 0;
  std::vector<BusyTicks> busy_before;
  if (alone) {
    PrepareForPass();
    SnapshotBusy(&busy_before);
  }
  const std::size_t slot = AcquireSlot();
  double* staging = ring_[slot].bounds_staging.data();
  StageBounds(box, staging);

  // Figure 3, steps 1-4, per shard and concurrently across shards: bounds
  // upload, the closed-form contribution (13) of every sample point as a
  // product over dimensions (with the variable-KDE extension, point i
  // smooths with h_j * scales[i]), the binary-tree reduction to one
  // scalar, and the scalar read-back. One work item per 256-row group
  // computes its rows and adds them into a group sum, so the producer is
  // also the tree's first level. Each shard's chain is enqueued
  // back-to-back on its own in-order queue into slot-private buffers;
  // `FinishEstimateSlot` waits on the read-backs and folds.
  // A free slot's previous query was delivered before it was released,
  // so its upload completed; any of its later commands still queued
  // (gradient, Karma) are ordered before ours by the in-order queue.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    ShardSlot& sl = sh.slots[slot];
    const std::size_t rows = sample_->shard_size(si);
    sl.est_staging = 0.0;
    sl.est_done = Event();
    if (rows == 0) continue;
    CommandQueue* queue = sh.device->default_queue();
    queue->EnqueueCopyToDevice(staging, 2 * d, &sl.bounds_dev);
    const kb::ShardKernelView view = KernelView(si);
    const RowGroups groups{rows, 1};
    const ScratchBuffer group_sums = AcquireGroupSums(sh.device, groups);
    queue->EnqueueLaunch(
        "kde_contributions", groups, static_cast<double>(d),
        std::tuple_cat(ShardReads(si),
                       std::tuple(In(sl.bounds_dev, 0, 2 * d),
                                  Out(sl.contributions, 0, rows),
                                  GroupSumsOut(group_sums, groups,
                                               &sl.est_sum))),
        [view, rows](std::size_t begin, std::size_t end, const float* x,
                     const double* h, const float* scales,
                     const double* bounds, double* contrib, double* sums) {
          kb::ContributionGroups(view.Over(x, h, scales), bounds, contrib,
                                 sums, rows, begin, end);
        });
    ReduceGroups(queue, group_sums, groups, &sl.est_sum);
    sl.est_done = queue->EnqueueCopyToHost(sl.est_sum, 0, 1, &sl.est_staging);
  }
  if (alone) ObservePass(busy_before);
  return slot;
}

double KdeEngine::FinishEstimateSlot(std::size_t slot) {
  double total = 0.0;
  for (EngineShard& sh : shards_) {
    ShardSlot& sl = sh.slots[slot];
    if (sl.est_done.valid()) {
      sl.est_done.Wait();
      sl.est_done = Event();
    }
    total += sl.est_staging;
  }
  SetFeedbackContext(slot, total / static_cast<double>(sample_size()));
  return last_estimate_;
}

void KdeEngine::EnqueueGradientPass(std::size_t shard, std::size_t slot,
                                    bool with_estimate) {
  EngineShard& sh = shards_[shard];
  ShardSlot& sl = sh.slots[slot];
  const std::size_t rows = sample_->shard_size(shard);
  const std::size_t d = dims();
  CommandQueue* queue = sh.device->default_queue();
  const kb::ShardKernelView view = KernelView(shard);
  const RowGroups grad_groups{rows, d};
  const RowGroups est_groups{rows, 1};
  const ScratchBuffer grad_sums = AcquireGroupSums(sh.device, grad_groups);
  const ScratchBuffer est_sums =
      with_estimate ? AcquireGroupSums(sh.device, est_groups) : nullptr;

  // Fused producer: per sample point, the per-dimension CDF differences
  // and their h-derivatives give both the contribution (13) and, via
  // prefix/suffix products (avoiding division by near-zero factors), the
  // per-dimension gradient terms of eq. (17). Each work item adds its
  // group's terms into one group sum per dimension — and, for a pass
  // that reduces the estimate too, its contributions into another — so
  // the partials never leave a stack tile. Charged at its full 3d ops per
  // row plus the reduction level it absorbs; whether that cost reaches
  // the host depends on who waits — the synchronous path blocks on it,
  // the enqueued path lets it run while the database executes the query
  // (Section 5.5).
  queue->EnqueueLaunch(
      "kde_contributions_grad", RowGroups{rows, d + (with_estimate ? 1 : 0)},
      3.0 * static_cast<double>(d),
      std::tuple_cat(
          ShardReads(shard),
          std::tuple(In(sl.bounds_dev, 0, 2 * d),
                     Out(sl.contributions, 0, rows),
                     GroupSumsOut(grad_sums, grad_groups, &sl.grad_sums),
                     with_estimate
                         ? GroupSumsOut(est_sums, est_groups, &sl.est_sum)
                         : Out<double>())),
      [view, rows](std::size_t begin, std::size_t end, const float* x,
                   const double* h, const float* scales, const double* bounds,
                   double* contrib, double* grad, double* est) {
        kb::ContributionGradGroups(view.Over(x, h, scales), bounds, contrib,
                                   grad, est, rows, begin, end);
      });
  ReduceGroups(queue, est_sums, est_groups, &sl.est_sum);
  ReduceGroups(queue, grad_sums, grad_groups, &sl.grad_sums);
}

double KdeEngine::EstimateWithGradient(const Box& box,
                                       std::vector<double>* gradient) {
  PrepareForPass();
  const std::size_t d = dims();
  double staging[2 * kMaxDims];
  StageBounds(box, staging);
  std::vector<BusyTicks> busy_before;
  SnapshotBusy(&busy_before);
  const std::size_t slot = AcquireSlot();

  // Per shard: bounds upload, the fused contribution+gradient producer
  // with the reductions of its estimate and its d gradient group sums,
  // and the scalar and d-double read-backs — all enqueued on the shard's
  // queue, waited together. This path is on the critical path and hides
  // nothing.
  std::vector<Event> done(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    ShardSlot& sl = sh.slots[slot];
    const std::size_t rows = sample_->shard_size(si);
    sl.est_staging = 0.0;
    std::fill(sl.grad_staging.begin(), sl.grad_staging.end(), 0.0);
    if (rows == 0) continue;
    CommandQueue* queue = sh.device->default_queue();
    queue->EnqueueCopyToDevice(staging, 2 * d, &sl.bounds_dev);
    EnqueueGradientPass(si, slot, /*with_estimate=*/true);
    queue->EnqueueCopyToHost(sl.est_sum, 0, 1, &sl.est_staging);
    done[si] =
        queue->EnqueueCopyToHost(sl.grad_sums, 0, d, sl.grad_staging.data());
  }
  double total = 0.0;
  gradient->assign(d, 0.0);
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    if (!done[si].valid()) continue;
    done[si].Wait();
    total += shards_[si].slots[slot].est_staging;
    for (std::size_t j = 0; j < d; ++j) {
      (*gradient)[j] += shards_[si].slots[slot].grad_staging[j];
    }
  }
  ObservePass(busy_before);
  ReleaseSlot(slot);
  const double inv_s = 1.0 / static_cast<double>(sample_size());
  for (double& g : *gradient) g *= inv_s;
  SetFeedbackContext(slot, total * inv_s);
  return last_estimate_;
}

void KdeEngine::EnqueueGradientSlot(std::size_t slot) {
  const std::size_t d = dims();
  // Section 5.5, steps 5-6, for the bounds resident in `slot`: per
  // shard, the gradient producer, the reduction of its d segments of
  // group sums, and the d-double read-back —
  // all enqueued, none waited for. Each shard's in-order queue sequences
  // its chain; the read-back events are the collection handles. A
  // still-pending previous gradient on the same slot is simply
  // superseded: its commands complete in order and its staging writes
  // happen-before ours.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    ShardSlot& sl = sh.slots[slot];
    const std::size_t rows = sample_->shard_size(si);
    if (rows == 0) {
      sl.pending_gradient = Event();
      std::fill(sl.grad_staging.begin(), sl.grad_staging.end(), 0.0);
      continue;
    }
    EnqueueGradientPass(si, slot, /*with_estimate=*/false);
    CommandQueue* queue = sh.device->default_queue();
    sl.pending_gradient =
        queue->EnqueueCopyToHost(sl.grad_sums, 0, d, sl.grad_staging.data());
  }
}

void KdeEngine::CollectGradientSlot(std::size_t slot,
                                    std::vector<double>* gradient) {
  const std::size_t d = dims();
  gradient->assign(d, 0.0);
  for (EngineShard& sh : shards_) {
    ShardSlot& sl = sh.slots[slot];
    if (sl.pending_gradient.valid()) {
      sl.pending_gradient.Wait();
      sl.pending_gradient = Event();
      for (std::size_t j = 0; j < d; ++j) {
        (*gradient)[j] += sl.grad_staging[j];
      }
    }
  }
  const double inv_s = 1.0 / static_cast<double>(sample_size());
  for (double& g : *gradient) g *= inv_s;
}

void KdeEngine::SetFeedbackContext(std::size_t slot, double estimate) {
  FKDE_CHECK_MSG(slot < ring_.size(), "feedback slot beyond ring");
  feedback_slot_ = slot;
  last_estimate_ = estimate;
}

std::size_t KdeEngine::BatchTile(std::size_t queries, std::size_t shard_rows,
                                 bool with_partials) const {
  const std::size_t per_query =
      shard_rows * (1 + (with_partials ? dims() : 0)) * sizeof(double);
  const std::size_t tile =
      std::max<std::size_t>(1, kMaxBatchTileBytes / std::max<std::size_t>(
                                                        per_query, 1));
  return std::min(tile, queries);
}

std::vector<KdeEngine::BatchShard> KdeEngine::EnqueueBatchPipelines(
    std::span<const Box> boxes, const std::vector<double>& descriptors,
    std::size_t truths_count, bool with_partials, bool reduce_gradients,
    const std::function<void(std::size_t, std::size_t, BatchShard&)>& fold,
    bool enqueue_readbacks) {
  const std::size_t m = boxes.size();
  const std::size_t d = dims();
  std::vector<BatchShard> states(shards_.size());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    EngineShard& sh = shards_[si];
    const std::size_t rows = sample_->shard_size(si);
    if (rows == 0) continue;
    BatchShard& bs = states[si];
    CommandQueue* queue = sh.device->default_queue();

    // ONE descriptor upload per shard: all m query bounds, plus the
    // trailing truths for the loss path. All scratch below comes from the
    // device's pool — reused across calls, invisible to the ledger.
    bs.bounds = sh.device->AcquireScratch(m * 2 * d + truths_count);
    queue->EnqueueCopyToDevice(descriptors.data(), m * 2 * d + truths_count,
                               bs.bounds.get());
    const std::size_t tile = BatchTile(m, rows, with_partials);
    bs.contrib = sh.device->AcquireScratch(tile * rows);
    if (with_partials) {
      bs.partials = sh.device->AcquireScratch(tile * d * rows);
    }
    bs.est = sh.device->AcquireScratch(m);
    if (reduce_gradients) bs.grad = sh.device->AcquireScratch(m * d);

    // The accessors below lease the scratch to each command that names
    // it: the last one to retire releases it back to the pool.
    const kb::ShardKernelView view = KernelView(si);

    for (std::size_t t0 = 0; t0 < m; t0 += tile) {
      const std::size_t t = std::min(tile, m - t0);
      if (!with_partials) {
        // Batched analogue of the single-query contribution kernel: each
        // work item owns a sample point and covers the whole query tile,
        // so all m contribution maps cost ONE launch (Figure 3 step 2,
        // batched). The query loop is hoisted outside the point loop so
        // the contrib writes of a work-group stay contiguous per query —
        // and so the backend re-hoists the per-(query, dim) reciprocals
        // once per query descriptor.
        queue->EnqueueLaunch(
            "kde_batch_contributions", rows, static_cast<double>(t * d),
            std::tuple_cat(ShardReads(si),
                           std::tuple(In(bs.bounds, t0 * 2 * d, t * 2 * d),
                                      Out(bs.contrib, 0, t * rows))),
            [view, t, d, rows](std::size_t begin, std::size_t end,
                               const float* x, const double* h,
                               const float* scales, const double* bounds,
                               double* contrib) {
              const kb::ShardKernelView v = view.Over(x, h, scales);
              for (std::size_t q = 0; q < t; ++q) {
                kb::FusedContribution(v, bounds + q * 2 * d,
                                      contrib + q * rows, begin, end);
              }
            });
      } else {
        // Fused contribution+gradient kernel over the rows×tile grid,
        // reusing the prefix/suffix-product scheme of
        // EstimateWithGradient per query. Partials are stored query-major
        // ((q*d + j)*rows + i) so both the per-query segmented reduction
        // and the loss-weighted fold read contiguous segments.
        queue->EnqueueLaunch(
            "kde_batch_contributions_grad", rows,
            3.0 * static_cast<double>(t * d),
            std::tuple_cat(ShardReads(si),
                           std::tuple(In(bs.bounds, t0 * 2 * d, t * 2 * d),
                                      Out(bs.contrib, 0, t * rows),
                                      Out(bs.partials, 0, t * d * rows))),
            [view, t, d, rows](std::size_t begin, std::size_t end,
                               const float* x, const double* h,
                               const float* scales, const double* bounds,
                               double* contrib, double* partials) {
              const kb::ShardKernelView v = view.Over(x, h, scales);
              for (std::size_t q = 0; q < t; ++q) {
                kb::FusedContributionGrad(v, bounds + q * 2 * d,
                                          contrib + q * rows,
                                          partials + q * d * rows, rows,
                                          begin, end);
              }
            });
      }
      // All tile estimates advance through every reduction level
      // together.
      EnqueueReduceSumSegments(queue, *bs.contrib, 0, rows, t, bs.est.get(),
                               t0);
      if (reduce_gradients) {
        // The tile's t*d gradient partial segments reduce as one batch.
        EnqueueReduceSumSegments(queue, *bs.partials, 0, rows, t * d,
                                 bs.grad.get(), t0 * d);
      }
      if (fold) fold(t0, t, bs);
    }
    if (enqueue_readbacks) {
      bs.est_staging.resize(m);
      bs.done = queue->EnqueueCopyToHost(*bs.est, 0, m,
                                         bs.est_staging.data());
      if (reduce_gradients) {
        bs.grad_staging.resize(m * d);
        bs.done = queue->EnqueueCopyToHost(*bs.grad, 0, m * d,
                                           bs.grad_staging.data());
      }
    }
  }
  return states;
}

std::vector<double> KdeEngine::StageBatchDescriptors(
    std::span<const Box> boxes, std::span<const double> truths) const {
  const std::size_t m = boxes.size();
  const std::size_t d = dims();
  // Layout: query q's bounds at [q*2d, q*2d+2d) (lowers then uppers),
  // truths packed behind all bounds at [m*2d + q]. The same staging
  // serves every shard's upload.
  std::vector<double> staging(m * 2 * d + truths.size());
  for (std::size_t q = 0; q < m; ++q) {
    FKDE_CHECK_MSG(boxes[q].dims() == d, "query dims mismatch");
    double* qb = staging.data() + q * 2 * d;
    for (std::size_t j = 0; j < d; ++j) {
      qb[j] = boxes[q].lower(j);
      qb[d + j] = boxes[q].upper(j);
    }
  }
  if (!truths.empty()) {
    std::copy(truths.begin(), truths.end(), staging.begin() + m * 2 * d);
  }
  return staging;
}

void KdeEngine::EstimateBatch(std::span<const Box> boxes,
                              std::span<double> estimates) {
  FKDE_CHECK_MSG(estimates.size() == boxes.size(),
                 "estimate output arity mismatch");
  // m == 0 is a metered no-op: no descriptor upload, no kernel launch, no
  // read-back (pinned by batch_launch_test).
  if (boxes.empty()) return;
  PrepareForPass();
  const std::size_t m = boxes.size();
  std::vector<BusyTicks> busy_before;
  SnapshotBusy(&busy_before);
  const std::vector<double> descriptors = StageBatchDescriptors(boxes, {});
  std::vector<BatchShard> states = EnqueueBatchPipelines(
      boxes, descriptors, /*truths_count=*/0, /*with_partials=*/false,
      /*reduce_gradients=*/false, nullptr, /*enqueue_readbacks=*/true);
  std::fill(estimates.begin(), estimates.end(), 0.0);
  for (BatchShard& bs : states) {
    if (!bs.done.valid()) continue;
    bs.done.Wait();
    for (std::size_t q = 0; q < m; ++q) estimates[q] += bs.est_staging[q];
  }
  ObservePass(busy_before);
  const double inv_s = 1.0 / static_cast<double>(sample_size());
  for (double& e : estimates) e *= inv_s;
}

void KdeEngine::EstimateBatchWithGradient(std::span<const Box> boxes,
                                          std::span<double> estimates,
                                          std::span<double> gradients) {
  FKDE_CHECK_MSG(estimates.size() == boxes.size(),
                 "estimate output arity mismatch");
  FKDE_CHECK_MSG(gradients.size() == boxes.size() * dims(),
                 "gradient output arity mismatch");
  if (boxes.empty()) return;
  PrepareForPass();
  const std::size_t m = boxes.size();
  const std::size_t d = dims();
  std::vector<BusyTicks> busy_before;
  SnapshotBusy(&busy_before);
  const std::vector<double> descriptors = StageBatchDescriptors(boxes, {});
  std::vector<BatchShard> states = EnqueueBatchPipelines(
      boxes, descriptors, /*truths_count=*/0, /*with_partials=*/true,
      /*reduce_gradients=*/true, nullptr, /*enqueue_readbacks=*/true);
  std::fill(estimates.begin(), estimates.end(), 0.0);
  std::fill(gradients.begin(), gradients.end(), 0.0);
  for (BatchShard& bs : states) {
    if (!bs.done.valid()) continue;
    bs.done.Wait();
    for (std::size_t q = 0; q < m; ++q) estimates[q] += bs.est_staging[q];
    for (std::size_t k = 0; k < m * d; ++k) {
      gradients[k] += bs.grad_staging[k];
    }
  }
  ObservePass(busy_before);
  const double inv_s = 1.0 / static_cast<double>(sample_size());
  for (double& e : estimates) e *= inv_s;
  for (double& g : gradients) g *= inv_s;
}

double KdeEngine::EstimateBatchLoss(std::span<const Box> boxes,
                                    std::span<const double> truths,
                                    LossType loss, double lambda,
                                    std::vector<double>* gradient) {
  FKDE_CHECK_MSG(truths.size() == boxes.size(), "truth arity mismatch");
  FKDE_CHECK_MSG(!boxes.empty(), "batched loss needs at least one query");
  const std::size_t m = boxes.size();
  const std::size_t d = dims();

  if (shards_.size() > 1) {
    // Multi-shard: fold the per-query estimates (and gradients) across
    // shards on the host first, then chain the loss. Same math as the
    // single-shard device fold; only the summation order across shard
    // boundaries differs.
    std::vector<double> estimates(m);
    double loss_total = 0.0;
    if (gradient == nullptr) {
      EstimateBatch(boxes, estimates);
      for (std::size_t q = 0; q < m; ++q) {
        loss_total += EvaluateLoss(loss, estimates[q], truths[q], lambda);
      }
      return loss_total / static_cast<double>(m);
    }
    std::vector<double> grads(m * d);
    EstimateBatchWithGradient(boxes, estimates, grads);
    gradient->assign(d, 0.0);
    for (std::size_t q = 0; q < m; ++q) {
      loss_total += EvaluateLoss(loss, estimates[q], truths[q], lambda);
      const double weight =
          LossDerivative(loss, estimates[q], truths[q], lambda);
      for (std::size_t k = 0; k < d; ++k) {
        (*gradient)[k] += weight * grads[q * d + k];
      }
    }
    const double inv_m = 1.0 / static_cast<double>(m);
    for (double& g : *gradient) g *= inv_m;
    return loss_total * inv_m;
  }

  PrepareForPass();
  const std::size_t s = sample_size();
  const std::vector<double> descriptors = StageBatchDescriptors(boxes, truths);
  Device* dev = device();
  const double inv_s = 1.0 / static_cast<double>(s);

  if (gradient == nullptr) {
    // One epilogue work item folds all m losses (Section 5.5 step 7 for
    // the whole batch); the scalar comes back in one read.
    const ScratchBuffer results = dev->AcquireScratch(d + 1);
    auto fold = [&](std::size_t t0, std::size_t t, BatchShard& bs) {
      // Only act once, after the last tile, when every estimate is
      // resident.
      if (t0 + t < m) return;
      dev->Launch(
          "kde_batch_loss", 1, static_cast<double>(m),
          std::tuple(In(bs.est, 0, m), In(bs.bounds, m * 2 * d, m),
                     Out(results, 0, 1)),
          [=](std::size_t begin, std::size_t end, const double* est,
              const double* truth, double* out) {
            for (std::size_t item = begin; item < end; ++item) {
              double total = 0.0;
              for (std::size_t q = 0; q < m; ++q) {
                total += EvaluateLoss(loss, est[q] * inv_s, truth[q], lambda);
              }
              out[item] = total;
            }
          });
    };
    EnqueueBatchPipelines(boxes, descriptors, m, /*with_partials=*/false,
                          /*reduce_gradients=*/false, fold,
                          /*enqueue_readbacks=*/false);
    double total = 0.0;
    dev->CopyToHost(*results, 0, 1, &total);
    return total / static_cast<double>(m);
  }

  // Gradient path: the per-query ∂L/∂p̂ (eq. 14) is folded into the first
  // reduction level of the gradient partials, so only d+1 scalars — the d
  // loss-weighted gradient dot-products and the loss sum — ever reach the
  // host.
  const std::size_t gpseg = (s + kReduceGroupSize - 1) / kReduceGroupSize;
  const ScratchBuffer fold_buf = dev->AcquireScratch((d + 1) * gpseg);
  const ScratchBuffer results = dev->AcquireScratch(d + 1);
  double loss_total = 0.0;
  std::vector<double> grad_total(d, 0.0);
  std::vector<double> tile_results(d + 1);
  auto fold = [&](std::size_t t0, std::size_t t, BatchShard& bs) {
    // Items form d+1 segments of gpseg groups: segment k < d produces the
    // loss-weighted first reduction level of dimension k's partials;
    // segment d carries the tile's loss sum (group 0) padded with zeros,
    // so one segmented reduction finishes everything.
    dev->Launch(
        "kde_batch_loss_grad_fold", (d + 1) * gpseg,
        static_cast<double>(t * kReduceGroupSize),
        std::tuple(In(bs.est, t0, t), In(bs.bounds, m * 2 * d + t0, t),
                   In(bs.partials, 0, t * d * s),
                   Out(fold_buf, 0, (d + 1) * gpseg)),
        [=](std::size_t begin, std::size_t end, const double* est,
            const double* truth, const double* partials, double* fold_out) {
          for (std::size_t item = begin; item < end; ++item) {
            const std::size_t k = item / gpseg;
            const std::size_t g = item % gpseg;
            if (k == d) {
              double total = 0.0;
              if (g == 0) {
                for (std::size_t q = 0; q < t; ++q) {
                  total +=
                      EvaluateLoss(loss, est[q] * inv_s, truth[q], lambda);
                }
              }
              fold_out[item] = total;
              continue;
            }
            const std::size_t lo = g * kReduceGroupSize;
            const std::size_t hi = std::min(lo + kReduceGroupSize, s);
            double acc = 0.0;
            for (std::size_t q = 0; q < t; ++q) {
              const double weight =
                  LossDerivative(loss, est[q] * inv_s, truth[q], lambda);
              const double* seg = partials + (q * d + k) * s;
              double sub = 0.0;
              for (std::size_t i = lo; i < hi; ++i) sub += seg[i];
              acc += weight * sub;
            }
            fold_out[item] = acc;
          }
        });
    ReduceSumSegments(dev, *fold_buf, 0, gpseg, d + 1, results.get(), 0);
    dev->CopyToHost(*results, 0, d + 1, tile_results.data());
    for (std::size_t k = 0; k < d; ++k) grad_total[k] += tile_results[k];
    loss_total += tile_results[d];
  };
  EnqueueBatchPipelines(boxes, descriptors, m, /*with_partials=*/true,
                        /*reduce_gradients=*/false, fold,
                        /*enqueue_readbacks=*/false);

  gradient->resize(d);
  const double inv_ms =
      1.0 / (static_cast<double>(m) * static_cast<double>(s));
  for (std::size_t k = 0; k < d; ++k) (*gradient)[k] = grad_total[k] * inv_ms;
  return loss_total / static_cast<double>(m);
}

std::size_t KdeEngine::ModelBytes() const {
  return sample_->PayloadBytes() + bandwidth_.size() * sizeof(double) +
         sample_size() * sizeof(double);
}

std::size_t KdeEngine::SlotBytes() const {
  std::size_t doubles = 0;
  for (const EngineShard& sh : shards_) {
    for (const ShardSlot& sl : sh.slots) {
      doubles += sl.bounds_dev.size() + sl.contributions.size() +
                 sl.grad_sums.size() + sl.est_sum.size();
    }
  }
  return doubles * sizeof(double);
}

}  // namespace fkde
