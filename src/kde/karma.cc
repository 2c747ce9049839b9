#include "kde/karma.h"

#include <algorithm>
#include <cmath>

namespace fkde {

KarmaMaintainer::KarmaMaintainer(KdeEngine* engine,
                                 const KarmaOptions& options,
                                 std::span<const double> karma_by_slot)
    : engine_(engine), options_(options) {
  FKDE_CHECK(engine != nullptr);
  FKDE_CHECK(options.k_max > 0.0);
  FKDE_CHECK(options.threshold < options.k_max);
  const std::size_t capacity = engine_->sample()->capacity();
  shards_.resize(engine_->num_shards());
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Device* dev = engine_->sample()->shard_device(si);
    KarmaShard& sh = shards_[si];
    sh.karma = dev->CreateBuffer<double>(capacity);
    sh.flags = dev->CreateBuffer<std::uint32_t>((capacity + 31) / 32);
    // Sized once so the enqueued bitmap read-back never races a resize.
    sh.host_flags.resize((capacity + 31) / 32);
  }
  if (karma_by_slot.empty()) {
    ResetAllKarma();
    return;
  }
  // Saved scores: only the live rows are written. The capacity tail stays
  // unwritten; every pass reads just the live rows, and a migration that
  // grows a shard re-zeroes the whole buffer first.
  DeviceSample* sample = engine_->sample();
  FKDE_CHECK_MSG(karma_by_slot.size() == sample->size(),
                 "karma arity does not match sample size");
  std::vector<double> staging;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const std::size_t rows = sample->shard_size(si);
    if (rows == 0) continue;
    staging.resize(rows);
    for (std::size_t local = 0; local < rows; ++local) {
      staging[local] = karma_by_slot[sample->GlobalSlot(si, local)];
    }
    sample->shard_device(si)->CopyToDevice(staging.data(), rows,
                                           &shards_[si].karma);
  }
  epoch_ = sample->migration_epoch();
}

KarmaMaintainer::~KarmaMaintainer() {
  // A pending update holds pointers into the per-shard buffers.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    engine_->sample()->shard_device(si)->default_queue()->Finish();
  }
}

void KarmaMaintainer::ResetAllKarma() {
  // Zero-initialize the Karma scores (one transfer per shard).
  const std::size_t capacity = engine_->sample()->capacity();
  std::vector<double> zeros(capacity, 0.0);
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    engine_->sample()->shard_device(si)->CopyToDevice(
        zeros.data(), zeros.size(), &shards_[si].karma);
  }
  epoch_ = engine_->sample()->migration_epoch();
}

double KarmaMaintainer::InsideContributionBound(
    const Box& box, const std::vector<double>& bandwidth) {
  // Appendix E: the center point of the region contributes
  //   p_max = prod_j erf((u_j - l_j) / (2 sqrt(2) h_j))            (19)
  // and the best point just outside the region along dimension j drops
  // that dimension's factor from erf(w/(2 sqrt(2) h)) (full width around
  // the center) to erf(w/(sqrt(2) h)) / 2 evaluated one-sided; condition
  // (20) bounds any outside contribution by
  //   p_max / 2 * max_j erf(w_j/(sqrt(2) h_j)) / erf(w_j/(2 sqrt(2) h_j)).
  const std::size_t d = box.dims();
  FKDE_CHECK(bandwidth.size() == d);
  constexpr double kInvSqrt2 = 0.7071067811865476;
  double p_max = 1.0;
  double max_ratio = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    const double width = box.Extent(j);
    const double half_arg = width * kInvSqrt2 / (2.0 * bandwidth[j]);
    const double full_arg = width * kInvSqrt2 / bandwidth[j];
    const double erf_half = std::erf(half_arg);
    p_max *= erf_half;
    if (erf_half > 0.0) {
      max_ratio = std::max(max_ratio, std::erf(full_arg) / erf_half);
    }
  }
  return 0.5 * p_max * max_ratio;
}

void KarmaMaintainer::EnqueueUpdate(const Box& box, double true_selectivity) {
  FKDE_CHECK_MSG(!update_pending_, "previous Karma update not collected");
  DeviceSample* sample = engine_->sample();
  const std::size_t s = engine_->sample_size();
  const double estimate = engine_->last_estimate();
  const double ds = static_cast<double>(s);

  // The scores are local-row indexed; a migration since the last pass
  // permuted the rows underneath them, so start the accumulation over.
  if (sample->migration_epoch() != epoch_) ResetAllKarma();

  // Appendix E shortcut: only meaningful for empty queries with the
  // Gaussian kernel (the bound is derived from the Gaussian CDF).
  double inside_bound = std::numeric_limits<double>::infinity();
  if (options_.empty_region_shortcut && true_selectivity == 0.0 &&
      engine_->kernel() == KernelType::kGaussian) {
    inside_bound = InsideContributionBound(box, engine_->bandwidth());
  }

  const LossType loss = options_.loss;
  const double lambda = options_.lambda;
  const double k_max = options_.k_max;
  const double threshold = options_.threshold;
  const double base_loss =
      EvaluateLoss(loss, estimate, true_selectivity, lambda);

  // Figure 3, step 9, per shard and concurrently: one pass over the
  // shard's rows updates every point's cumulative Karma and emits the
  // replacement bitmap. Each work item owns one 32-bit bitmap word (32
  // local rows), so concurrent groups never write the same word.
  // Enqueued, not waited for: it reuses the contributions retained from
  // the estimate (the shard's in-order queue keeps it reading the right
  // values) and runs while the database processes the next statement;
  // ~1 op per covered slot. The leave-one-out estimate (6) only needs the
  // GLOBAL estimate and the point's own contribution, so shards never
  // need each other's data.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    KarmaShard& sh = shards_[si];
    const std::size_t rows = sample->shard_size(si);
    if (rows == 0) {
      sh.pending = Event();
      continue;
    }
    const std::size_t words = (rows + 31) / 32;
    CommandQueue* queue = sample->shard_device(si)->default_queue();
    queue->EnqueueLaunch(
        "karma_update", words, 32.0,
        std::tuple(In(engine_->shard_contributions(si), 0, rows),
                   InOut(sh.karma, 0, rows), Out(sh.flags, 0, words)),
        [=](std::size_t begin, std::size_t end, const double* contrib,
            double* karma, std::uint32_t* flags) {
          for (std::size_t w = begin; w < end; ++w) {
            std::uint32_t word = 0;
            const std::size_t lo = w * 32;
            const std::size_t hi = std::min(lo + 32, rows);
            for (std::size_t i = lo; i < hi; ++i) {
              // Leave-one-out estimate, eq. (6).
              const double without =
                  s > 1 ? (estimate * ds - contrib[i]) / (ds - 1.0)
                        : estimate;
              // Per-query Karma, eq. (7).
              const double k_query =
                  EvaluateLoss(loss, without, true_selectivity, lambda) -
                  base_loss;
              // Cumulative Karma with saturation, eq. (8).
              karma[i] = std::min(karma[i] + k_query, k_max);
              const bool below = karma[i] < threshold;
              // Appendix E: provably inside an empty region (cond. 20).
              const bool provably_stale = contrib[i] >= inside_bound;
              if (below || provably_stale) word |= 1u << (i - lo);
            }
            flags[w] = word;
          }
        });

    // Enqueue the bitmap read-back (rows/8 bytes) behind the kernel; the
    // event is the collection handle.
    sh.pending =
        queue->EnqueueCopyToHost(sh.flags, 0, words, sh.host_flags.data());
  }
  update_pending_ = true;
}

std::vector<std::size_t> KarmaMaintainer::CollectPending() {
  FKDE_CHECK_MSG(update_pending_, "no enqueued Karma update to collect");
  for (KarmaShard& sh : shards_) {
    if (sh.pending.valid()) {
      sh.pending.Wait();
      sh.pending = Event();
    }
  }
  update_pending_ = false;
  DeviceSample* sample = engine_->sample();
  // A migration while the pass was in flight permuted the rows its bitmap
  // indexes — the results are stale. Discard them and restart the scores;
  // the next feedback rebuilds the pass against the new layout.
  if (sample->migration_epoch() != epoch_) {
    ResetAllKarma();
    return {};
  }
  std::vector<std::size_t> slots;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const std::size_t rows = sample->shard_size(si);
    const std::size_t words = (rows + 31) / 32;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint32_t word = shards_[si].host_flags[w];
      while (word != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctz(word));
        slots.push_back(sample->GlobalSlot(si, w * 32 + bit));
        word &= word - 1;
      }
    }
  }
  std::sort(slots.begin(), slots.end());
  return slots;
}

std::vector<std::size_t> KarmaMaintainer::Update(const Box& box,
                                                 double true_selectivity) {
  EnqueueUpdate(box, true_selectivity);
  return CollectPending();
}

void KarmaMaintainer::ResetSlot(std::size_t slot) {
  DeviceSample* sample = engine_->sample();
  FKDE_CHECK(slot < sample->size());
  const auto [shard, local] = sample->LocateSlot(slot);
  const double zero = 0.0;
  sample->shard_device(shard)->CopyToDevice(&zero, 1, &shards_[shard].karma,
                                            local);
}

std::vector<double> KarmaMaintainer::ReadKarma() {
  DeviceSample* sample = engine_->sample();
  // Scores from before a migration index rows that moved; the next pass
  // would restart them, so restart them now. This also keeps the read off
  // rows a shard gained, which a restored buffer never wrote.
  if (sample->migration_epoch() != epoch_) ResetAllKarma();
  const std::size_t s = engine_->sample_size();
  std::vector<double> host(s);
  std::vector<double> staging;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const std::size_t rows = sample->shard_size(si);
    if (rows == 0) continue;
    staging.resize(rows);
    sample->shard_device(si)->CopyToHost(shards_[si].karma, 0, rows,
                                        staging.data());
    for (std::size_t local = 0; local < rows; ++local) {
      host[sample->GlobalSlot(si, local)] = staging[local];
    }
  }
  return host;
}

}  // namespace fkde
