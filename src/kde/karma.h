/// \file karma.h
/// \brief Karma-based sample maintenance (paper Section 4.2, Appendix E).
///
/// Database updates slowly invalidate the device-resident sample. Classic
/// sample-maintenance algorithms would stream correction data over the
/// bus; the Karma scheme instead piggybacks on the query feedback already
/// sent for bandwidth adaptation:
///
///  * the leave-one-out estimate (6) tells how the estimator would have
///    done without point i, using the retained per-point contributions;
///  * the per-query Karma (7) is the loss change the point caused;
///  * cumulative Karma (8) is clamped at K_max (saturation, default 4) so
///    formerly-good points can be demoted quickly;
///  * points whose cumulative Karma sinks below a threshold are marked
///    outdated and replaced by fresh tuples sampled from the database;
///  * the Appendix E shortcut instantly replaces points that *provably*
///    lie inside an empty query region, by bounding the maximum
///    contribution a point outside the region can make (eqs. 19/20).
///
/// The device produces a replacement bitmap; the host samples fresh rows
/// and writes each back with a single d-float transfer.
///
/// The maintenance pass is asynchronous: `EnqueueUpdate` submits the
/// Karma kernel and the s/8-byte bitmap read-back on the device queue and
/// returns immediately — the pass runs "while the database processes the
/// next statement" (Section 5.6). The caller collects the replacement
/// slots with `CollectPending` when it next has feedback in hand, so
/// replacements land one query late, exactly as in the paper's pipeline.
///
/// Over a sharded sample the pass runs per shard, concurrently, against
/// each shard's retained contributions, and `CollectPending` maps the
/// local bitmap hits back to global slots. Karma scores are local-row
/// indexed, so a shard migration invalidates them: the maintainer
/// snapshots the sample's `migration_epoch()` and, when it moves,
/// discards the stale pass's results and re-zeroes the scores (rebalances
/// are rare, so losing accumulated Karma is an accepted cost — the
/// alternative would be migrating the scores alongside every row).

#ifndef FKDE_KDE_KARMA_H_
#define FKDE_KDE_KARMA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/box.h"
#include "kde/engine.h"
#include "kde/loss.h"

namespace fkde {

/// \brief Karma parameters (paper defaults).
struct KarmaOptions {
  double k_max = 4.0;        ///< Saturation bound of cumulative Karma.
  double threshold = -1.0;   ///< Replace points whose Karma sinks below.
  /// Loss whose change defines the Karma score. Defaults to the squared
  /// Q-error: its O(1)-O(10) per-query magnitudes are what make the
  /// paper's constants (K_max = 4, a small negative threshold) meaningful;
  /// an absolute L2 on selectivities would produce O(1e-5) Karma values
  /// that never reach any fixed threshold.
  LossType loss = LossType::kSquaredQ;
  double lambda = 1e-5;
  /// Enable the Appendix E empty-region shortcut (Gaussian kernel only;
  /// the bound (20) is derived from the Gaussian CDF).
  bool empty_region_shortcut = true;
};

/// \brief Tracks cumulative Karma of each sample slot on the device.
class KarmaMaintainer {
 public:
  /// Tracks the engine's sample. The engine must outlive the maintainer.
  /// Scores start at `karma_by_slot`, global-slot indexed as `ReadKarma`
  /// returns them, with one transfer of the live rows per non-empty shard
  /// (snapshot restore); its arity must equal the sample size. Empty
  /// starts every score at zero, the capacity included.
  KarmaMaintainer(KdeEngine* engine, const KarmaOptions& options,
                  std::span<const double> karma_by_slot = {});

  /// Drains the device queue so a pending update never outlives the
  /// Karma/bitmap buffers (command_queue.h lifetime discipline).
  ~KarmaMaintainer();

  /// Enqueues the Karma scoring pass for the last estimate's retained
  /// contributions (engine->contributions()) and the true selectivity of
  /// the same query box, without blocking: one kernel over the bitmap
  /// words plus the s/8-byte bitmap read-back. Must be called after
  /// `engine->Estimate*(box)` for the same box and BEFORE the next
  /// estimate overwrites the contributions (the in-order queue then keeps
  /// the pass reading the right values). A previous update must have been
  /// collected first.
  void EnqueueUpdate(const Box& box, double true_selectivity);

  /// Waits for the pending `EnqueueUpdate` pass and returns the sample
  /// slots that must be replaced (Karma below threshold, or inside a
  /// provably empty region). Requires `update_pending()`.
  std::vector<std::size_t> CollectPending();

  /// True between `EnqueueUpdate` and `CollectPending`.
  bool update_pending() const { return update_pending_; }

  /// Synchronous convenience wrapper: EnqueueUpdate + CollectPending.
  std::vector<std::size_t> Update(const Box& box, double true_selectivity);

  /// Resets the Karma of a slot that was just replaced with a fresh row.
  void ResetSlot(std::size_t slot);

  /// Reads back the full Karma vector (metered; snapshot capture, tests).
  std::vector<double> ReadKarma();

  const KarmaOptions& options() const { return options_; }

  /// Appendix E: the minimum contribution that proves a point lies inside
  /// `box` (right-hand side of condition (20)), given the bandwidth.
  /// Exposed for tests.
  static double InsideContributionBound(const Box& box,
                                        const std::vector<double>& bandwidth);

 private:
  /// Per-shard maintenance state, local-row indexed, capacity-sized so
  /// migration growth never reallocates under a pending pass.
  struct KarmaShard {
    DeviceBuffer<double> karma;        // One score per local row.
    DeviceBuffer<std::uint32_t> flags;  // Replacement bitmap, 32 rows/word.
    std::vector<std::uint32_t> host_flags;  // Bitmap read-back staging.
    Event pending;                     // Held until the next feedback.
  };

  /// Re-zeroes every shard's Karma (one transfer per shard) and records
  /// the current migration epoch.
  void ResetAllKarma();

  KdeEngine* engine_;
  KarmaOptions options_;
  std::vector<KarmaShard> shards_;
  /// Sample migration epoch the scores (and any pending pass) refer to.
  std::uint64_t epoch_ = 0;
  bool update_pending_ = false;
};

}  // namespace fkde

#endif  // FKDE_KDE_KARMA_H_
