/// \file kde_estimator.h
/// \brief The assembled KDE selectivity estimators of the evaluation.
///
/// Wires the engine, bandwidth selectors, adaptive learner and sample
/// maintenance into the four KDE configurations compared in Section 6.1.1:
///
///  * **Heuristic** — Scott's-rule bandwidth, no adaptation. The paper's
///    stand-in for prior KDE estimators [14, 16].
///  * **Scv** — construction-time Smoothed-Cross-Validation bandwidth.
///  * **Batch** — bandwidth numerically optimized over a training
///    workload (Section 3), static afterwards.
///  * **Periodic** — the deployment recipe of Section 3.4: keep the last
///    q user queries in a ring buffer and periodically re-run the batch
///    optimization over them. Heavier than Adaptive per update, but uses
///    the global optimizer, so it cannot get stuck in a local minimum.
///  * **Adaptive** — Scott init, then continuous mini-batch RMSprop
///    bandwidth updates from query feedback plus Karma/reservoir sample
///    maintenance (Sections 4 & 5). The per-query gradient pass and the
///    Karma scoring pass are ENQUEUED on the device queue, never waited
///    for inline: the gradient runs while the database executes the query
///    and is collected when its feedback arrives; the Karma pass runs
///    while the database processes the next statement and its
///    replacements are collected at the next feedback (Sections 5.5-5.6).
///
/// Every query, classic or streamed, is one ticket on the engine's slot
/// ring: admitted, delivered, then fed back or retired. The classic
/// `EstimateSelectivity`/`ObserveTrueSelectivity` pair is the one-ticket
/// case of the streamed `Stream*` API, and both share one feedback body.

#ifndef FKDE_KDE_KDE_ESTIMATOR_H_
#define FKDE_KDE_KDE_ESTIMATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/table.h"
#include "estimator/estimator.h"
#include "kde/adaptive.h"
#include "kde/batch.h"
#include "kde/engine.h"
#include "kde/karma.h"
#include "kde/reservoir.h"
#include "kde/scv.h"
#include "workload/workload.h"

namespace fkde {

/// \brief Configuration shared by all KDE estimator variants.
struct KdeConfig {
  /// Sample rows kept on the device. The paper's d*4kB memory budget with
  /// 4-byte floats yields 1024 rows regardless of d.
  std::size_t sample_size = 1024;
  KernelType kernel = KernelType::kGaussian;
  /// Loss optimized by the batch and adaptive variants.
  LossType loss = LossType::kQuadratic;
  double lambda = 1e-5;
  std::uint64_t seed = 7;

  AdaptiveOptions adaptive;   ///< Adaptive variant only.
  KarmaOptions karma;         ///< Adaptive variant only.
  BatchOptions batch;         ///< Batch and Periodic variants.
  ScvOptions scv;             ///< SCV variant only.
  bool enable_karma = true;      ///< Adaptive: Karma maintenance on/off.
  bool enable_reservoir = true;  ///< Adaptive: reservoir inserts on/off.
  /// Periodic variant: ring-buffer capacity (the paper suggests "on the
  /// order of a few hundred queries", Section 3.4 step 1).
  std::size_t feedback_window = 256;
  /// Periodic variant: re-run the batch optimization after this many new
  /// feedback observations.
  std::size_t reoptimize_every = 100;
};

/// \brief KDE-based SelectivityEstimator over a device-resident sample.
class KdeSelectivityEstimator : public SelectivityEstimator {
 public:
  enum class Mode { kHeuristic, kScv, kBatch, kPeriodic, kAdaptive };

  /// Builds an estimator over `table` (the model-construction step the
  /// paper triggers from Postgres' ANALYZE). `training` is required for
  /// Mode::kBatch and ignored otherwise. The table pointer is retained:
  /// the adaptive variant draws replacement sample rows from it, exactly
  /// as the paper's maintenance asks the database for fresh tuples.
  static Result<std::unique_ptr<KdeSelectivityEstimator>> Create(
      Mode mode, Device* device, const Table* table, const KdeConfig& config,
      std::span<const Query> training = {});

  /// Multi-device variant: the sample is sharded across `group` and every
  /// engine hot path runs per-shard concurrently (Section 5.4 past one
  /// device's ceiling). The group must outlive the estimator.
  static Result<std::unique_ptr<KdeSelectivityEstimator>> Create(
      Mode mode, DeviceGroup* group, const Table* table,
      const KdeConfig& config, std::span<const Query> training = {});

  std::string name() const override;
  std::size_t dims() const override { return engine_->dims(); }
  double EstimateSelectivity(const Box& box) override;
  void ObserveTrueSelectivity(const Box& box, double selectivity) override;
  void OnInsert(std::span<const double> row,
                std::size_t table_rows_after) override;
  std::size_t ModelBytes() const override;

  // -- Streamed serving (N queries in flight) --------------------------
  //
  // The classic EstimateSelectivity / ObserveTrueSelectivity pair keeps
  // one query's ticket open. The ticketed triple below generalizes it:
  // `StreamBegin` enqueues query k's estimate (and, for the adaptive
  // variant, its gradient) chain on a free ring slot without waiting,
  // `StreamDeliver` collects the estimate when the optimizer needs it,
  // and `StreamFeedback` applies the query's true selectivity — RMSprop
  // step, Karma collection/replacements, next Karma pass — against the
  // ticket's own slot, so feedback for query k lands correctly while
  // queries k+1.. are already in flight. Tickets deliver and retire
  // strictly FIFO (checked); the caller bounds how many are in flight,
  // and the engine's ring grows to match. Ticket ids restart at 0
  // whenever no ticket is open.

  /// Tickets begun but not yet retired.
  std::size_t stream_in_flight() const { return tickets_.size(); }

  /// Admits `box` into the stream: enqueues its estimate (+ gradient)
  /// chain and returns the ticket.
  std::uint64_t StreamBegin(const Box& box);

  /// Waits for `ticket`'s estimate read-backs and returns the clamped
  /// selectivity. Must be called FIFO, once per ticket.
  double StreamDeliver(std::uint64_t ticket);

  /// Applies the true selectivity for `ticket` (delivered, FIFO) and
  /// retires it, freeing its slot for the next admission.
  void StreamFeedback(std::uint64_t ticket, double selectivity);

  /// Retires `ticket` (delivered, FIFO) WITHOUT feedback — the frozen-
  /// model path. A pipelined gradient left on the slot is superseded
  /// when the slot is reused.
  void StreamRetire(std::uint64_t ticket);

  /// Folds every in-flight device pass into host state so the model can
  /// be serialized or torn down without losing behavior: a delivered
  /// ticket still awaiting feedback is retired and its gradient collected
  /// and discarded (the next feedback for its box runs on a fresh ticket
  /// and recomputes it, bitwise-identically), and a pending Karma pass is
  /// collected into `pending_karma_slots_`, to be applied at the next
  /// feedback exactly as the non-quiesced path would. Aborts on an
  /// undelivered ticket. Estimates before and after a quiesce are
  /// unchanged; snapshot/eviction call this.
  void Quiesce();

  /// Current bandwidth (host copy) — diagnostics and tests.
  const std::vector<double>& bandwidth() const { return engine_->bandwidth(); }
  Mode mode() const { return mode_; }
  KdeEngine* engine() { return engine_.get(); }
  /// Sample points replaced by Karma/shortcut so far.
  std::size_t karma_replacements() const { return karma_replacements_; }
  /// Batch re-optimizations run so far (Periodic mode).
  std::size_t reoptimizations() const { return reoptimizations_; }
  /// Current feedback ring contents (Periodic mode; diagnostics/tests).
  const std::vector<Query>& feedback_ring() const { return feedback_ring_; }
  /// Report of the construction-time batch optimization (Batch mode).
  const BatchReport& batch_report() const { return batch_report_; }

 private:
  /// Snapshot codec (kde/snapshot.cc): reads/writes the private model
  /// state and rebuilds estimators outside the Create path.
  friend class ModelSnapshotAccess;

  KdeSelectivityEstimator(Mode mode, const Table* table,
                          const KdeConfig& config);

  /// Shared model construction once `sample_` exists (sample load, engine,
  /// per-mode setup).
  static Result<std::unique_ptr<KdeSelectivityEstimator>> CreateCommon(
      std::unique_ptr<KdeSelectivityEstimator> est, const Table* table,
      const KdeConfig& config, std::span<const Query> training);

  /// Replaces the sample rows queued in `pending_karma_slots_` with fresh
  /// table tuples (one rng_ draw + d-float transfer each) and clears the
  /// queue. Both the live feedback path and the snapshot-restored path
  /// apply replacements through here, so a quiesce never reorders them.
  void ApplyPendingKarma();

  /// Periodic-mode feedback: ring-buffer append plus the due
  /// re-optimization.
  void ObservePeriodicFeedback(const Box& box, double selectivity);

  /// One query's host-side state, alive from its admission until it is
  /// fed back or retired.
  struct StreamTicket {
    std::uint64_t id = 0;
    std::size_t slot = 0;      ///< Engine ring slot, held until retired.
    Box box;                   ///< For the Karma pass at feedback time.
    double raw_estimate = 0.0; ///< Unclamped, for the loss derivative.
    bool delivered = false;
  };

  /// Queues a ticket for `box` and enqueues its estimate chain on the
  /// lowest free ring slot. Shared by StreamBegin and the classic pair,
  /// which differ only in when the gradient is enqueued.
  StreamTicket& Admit(const Box& box);

  /// Enqueues the adaptive variant's gradient pass on `ticket`'s slot;
  /// a no-op for the other variants.
  void EnqueueTicketGradient(const StreamTicket& ticket);

  /// Waits for the front ticket's estimate; returns it clamped.
  double DeliverFront();

  /// Pops the front ticket and frees its ring slot.
  StreamTicket RetireFront();

  /// The classic pair keeps at most one ticket open: the last estimate,
  /// delivered and awaiting feedback that may never come. Retires it.
  void RetireUnanswered();

  /// The Listing-1 feedback body for a retired ticket: periodic ring
  /// append, or RMSprop step on the ticket's gradient plus the Karma
  /// collect/apply and the next Karma pass over the ticket's slot.
  void ApplyFeedback(const StreamTicket& ticket, double selectivity);

  FKDE_SNAPSHOT_EXCLUDE("serialized in the snapshot header; restore feeds it through the constructor")
  Mode mode_;
  FKDE_SNAPSHOT_EXCLUDE("borrowed pointer; the caller re-supplies the table at restore")
  const Table* table_;
  FKDE_SNAPSHOT_EXCLUDE("serialized in the snapshot config block; restore feeds it through the constructor")
  KdeConfig config_;
  Rng rng_;
  std::unique_ptr<DeviceSample> sample_;
  std::unique_ptr<KdeEngine> engine_;
  std::optional<AdaptiveBandwidth> adaptive_;
  std::optional<KarmaMaintainer> karma_;
  std::optional<ReservoirMaintainer> reservoir_;
  BatchReport batch_report_;

  std::size_t karma_replacements_ = 0;
  /// Replacement slots collected from the device but not yet applied:
  /// Karma lands its replacements one query late (Section 5.6), so a
  /// collected pass parks here until the next feedback. Survives
  /// snapshots, which is what keeps evict/restore bitwise-faithful.
  std::vector<std::size_t> pending_karma_slots_;

  // FIFO of in-flight tickets, classic or streamed.
  FKDE_SNAPSHOT_EXCLUDE("per-query state; the Quiesce() that precedes every snapshot retires every ticket")
  std::deque<StreamTicket> tickets_;
  FKDE_SNAPSHOT_EXCLUDE("restarts at 0 whenever the FIFO empties, and Quiesce() empties it before every snapshot")
  std::uint64_t next_ticket_ = 0;

  // Periodic mode: ring buffer of recent feedback (Section 3.4 step 1).
  std::vector<Query> feedback_ring_;
  std::size_t ring_next_ = 0;
  std::size_t feedback_since_optimize_ = 0;
  std::size_t reoptimizations_ = 0;
};

/// Human-readable estimator names matching the paper's plots.
std::string KdeModeName(KdeSelectivityEstimator::Mode mode);

}  // namespace fkde

#endif  // FKDE_KDE_KDE_ESTIMATOR_H_
