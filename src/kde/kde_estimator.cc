#include "kde/kde_estimator.h"

#include <algorithm>
#include <cmath>

namespace fkde {

std::string KdeModeName(KdeSelectivityEstimator::Mode mode) {
  switch (mode) {
    case KdeSelectivityEstimator::Mode::kHeuristic:
      return "kde_heuristic";
    case KdeSelectivityEstimator::Mode::kScv:
      return "kde_scv";
    case KdeSelectivityEstimator::Mode::kBatch:
      return "kde_batch";
    case KdeSelectivityEstimator::Mode::kPeriodic:
      return "kde_periodic";
    case KdeSelectivityEstimator::Mode::kAdaptive:
      return "kde_adaptive";
  }
  return "kde_unknown";
}

KdeSelectivityEstimator::KdeSelectivityEstimator(Mode mode,
                                                 const Table* table,
                                                 const KdeConfig& config)
    : mode_(mode), table_(table), config_(config), rng_(config.seed) {}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::Create(Mode mode, Device* device, const Table* table,
                                const KdeConfig& config,
                                std::span<const Query> training) {
  if (device == nullptr || table == nullptr) {
    return Status::InvalidArgument("device and table must be non-null");
  }
  if (table->empty()) {
    return Status::FailedPrecondition("cannot build a model on an empty table");
  }
  if (config.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }
  std::unique_ptr<KdeSelectivityEstimator> est(
      new KdeSelectivityEstimator(mode, table, config));
  est->sample_ = std::make_unique<DeviceSample>(
      device, std::min(config.sample_size, table->num_rows()),
      table->num_cols());
  return CreateCommon(std::move(est), table, config, training);
}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::Create(Mode mode, DeviceGroup* group,
                                const Table* table, const KdeConfig& config,
                                std::span<const Query> training) {
  if (group == nullptr || table == nullptr) {
    return Status::InvalidArgument("group and table must be non-null");
  }
  if (table->empty()) {
    return Status::FailedPrecondition("cannot build a model on an empty table");
  }
  if (config.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }
  std::unique_ptr<KdeSelectivityEstimator> est(
      new KdeSelectivityEstimator(mode, table, config));
  est->sample_ = std::make_unique<DeviceSample>(
      group, std::min(config.sample_size, table->num_rows()),
      table->num_cols());
  return CreateCommon(std::move(est), table, config, training);
}

Result<std::unique_ptr<KdeSelectivityEstimator>>
KdeSelectivityEstimator::CreateCommon(
    std::unique_ptr<KdeSelectivityEstimator> est, const Table* table,
    const KdeConfig& config, std::span<const Query> training) {
  const Mode mode = est->mode_;
  // ANALYZE step: draw the sample and push it to the device in one bulk
  // transfer per shard; the engine then initializes the bandwidth via
  // Scott's rule computed on the device (Section 5.2).
  FKDE_RETURN_NOT_OK(est->sample_->LoadFromTable(*table, &est->rng_));
  est->engine_ =
      std::make_unique<KdeEngine>(est->sample_.get(), config.kernel);

  switch (mode) {
    case Mode::kHeuristic:
      break;  // Scott's rule is already installed.
    case Mode::kScv: {
      // Read the sample back once (one transfer per shard) for the
      // host-side SCV criterion.
      const std::size_t s = est->sample_->size();
      const std::size_t d = est->sample_->dims();
      const std::vector<double> host_sample = est->sample_->GatherRows();
      FKDE_ASSIGN_OR_RETURN(
          std::vector<double> bandwidth,
          ScvSelectBandwidth(host_sample, s, d, est->engine_->bandwidth(),
                             config.scv));
      FKDE_RETURN_NOT_OK(est->engine_->SetBandwidth(bandwidth));
      break;
    }
    case Mode::kBatch: {
      if (training.empty()) {
        return Status::InvalidArgument(
            "batch mode requires a training workload");
      }
      BatchOptions batch = config.batch;
      batch.loss = config.loss;
      batch.lambda = config.lambda;
      FKDE_ASSIGN_OR_RETURN(
          est->batch_report_,
          OptimizeBandwidthBatch(est->engine_.get(), training, batch,
                                 &est->rng_));
      break;
    }
    case Mode::kPeriodic: {
      if (config.feedback_window == 0 || config.reoptimize_every == 0) {
        return Status::InvalidArgument(
            "periodic mode needs a positive window and interval");
      }
      est->feedback_ring_.reserve(config.feedback_window);
      break;  // Scott start; the first re-optimization tunes it.
    }
    case Mode::kAdaptive: {
      est->adaptive_.emplace(table->num_cols(), config.adaptive);
      if (config.enable_karma) {
        // Karma keeps its own loss (relative-scale by default) — see
        // KarmaOptions::loss. The bandwidth loss is independent.
        est->karma_.emplace(est->engine_.get(), config.karma);
      }
      if (config.enable_reservoir) {
        est->reservoir_.emplace(est->sample_.get(), &est->rng_);
      }
      break;
    }
  }
  return est;
}

std::string KdeSelectivityEstimator::name() const {
  return KdeModeName(mode_);
}

double KdeSelectivityEstimator::EstimateSelectivity(const Box& box) {
  // All modes answer with the plain estimate pass; only it is on the
  // optimizer's critical path. The classic order is estimate chain, wait,
  // then gradient — enqueuing the gradient ahead of the wait (the
  // streamed order) costs the host wall time while the device idles.
  RetireUnanswered();
  const StreamTicket& ticket = Admit(box);
  const double estimate = DeliverFront();
  // Section 5.5, steps 5-6: the gradient pass for this query is enqueued
  // now and crunches while the database executes the query;
  // ObserveTrueSelectivity collects it when the feedback arrives. A query
  // that never gets feedback is retired by the next estimate, whose
  // gradient supersedes the pending pass on the reused slot.
  EnqueueTicketGradient(ticket);
  return estimate;
}

void KdeSelectivityEstimator::ObserveTrueSelectivity(const Box& box,
                                                     double selectivity) {
  // Feedback answers the open ticket when it holds `box`'s delivered
  // estimate. Any other feedback — for a box that was not just
  // estimated, a second one for the same box, or with no ticket open —
  // runs on a fresh ticket, so the gradient and retained contributions
  // Karma reuses belong to `box`. That exceptional path pays the full
  // estimate and gradient cost inline. Only the adaptive variant reads
  // that device state; the others skip the fresh pass.
  const bool answers_open = !tickets_.empty() && tickets_.front().delivered &&
                            tickets_.front().box == box;
  if (!answers_open) {
    if (mode_ != Mode::kAdaptive) {
      RetireUnanswered();
      if (mode_ == Mode::kPeriodic) ObservePeriodicFeedback(box, selectivity);
      return;
    }
    (void)EstimateSelectivity(box);
  }
  ApplyFeedback(RetireFront(), selectivity);
}

void KdeSelectivityEstimator::ObservePeriodicFeedback(const Box& box,
                                                      double selectivity) {
  // Section 3.4 deployment: remember the last q queries in a ring
  // buffer and periodically re-solve optimization problem (5) over
  // them, starting from the current bandwidth.
  Query query;
  query.box = box;
  query.selectivity = selectivity;
  if (feedback_ring_.size() < config_.feedback_window) {
    feedback_ring_.push_back(std::move(query));
  } else {
    feedback_ring_[ring_next_] = std::move(query);
    ring_next_ = (ring_next_ + 1) % config_.feedback_window;
  }
  ++feedback_since_optimize_;
  if (feedback_since_optimize_ >= config_.reoptimize_every &&
      feedback_ring_.size() >= config_.reoptimize_every) {
    feedback_since_optimize_ = 0;
    BatchOptions batch = config_.batch;
    batch.loss = config_.loss;
    batch.lambda = config_.lambda;
    FKDE_CHECK_OK(
        OptimizeBandwidthBatch(engine_.get(), feedback_ring_, batch, &rng_)
            .status());
    ++reoptimizations_;
  }
}

KdeSelectivityEstimator::StreamTicket& KdeSelectivityEstimator::Admit(
    const Box& box) {
  // Ids restart whenever the FIFO empties. A counter carried across that
  // point would be hidden persistent state: a restored model (whose
  // counter starts fresh) would hand out different ids than the original
  // for the same admission schedule.
  if (tickets_.empty()) next_ticket_ = 0;
  StreamTicket& ticket = tickets_.emplace_back();
  ticket.id = next_ticket_++;
  ticket.box = box;
  ticket.slot = engine_->BeginEstimateSlot(box);
  return ticket;
}

void KdeSelectivityEstimator::EnqueueTicketGradient(
    const StreamTicket& ticket) {
  if (mode_ == Mode::kAdaptive && adaptive_.has_value()) {
    engine_->EnqueueGradientSlot(ticket.slot);
  }
}

double KdeSelectivityEstimator::DeliverFront() {
  StreamTicket& front = tickets_.front();
  front.raw_estimate = engine_->FinishEstimateSlot(front.slot);
  front.delivered = true;
  return std::clamp(front.raw_estimate, 0.0, 1.0);
}

KdeSelectivityEstimator::StreamTicket KdeSelectivityEstimator::RetireFront() {
  StreamTicket front = std::move(tickets_.front());
  tickets_.pop_front();
  engine_->ReleaseSlot(front.slot);
  return front;
}

void KdeSelectivityEstimator::RetireUnanswered() {
  if (tickets_.empty()) return;
  FKDE_CHECK_MSG(tickets_.size() == 1 && tickets_.front().delivered,
                 "classic serving with streamed tickets in flight");
  RetireFront();
}

std::uint64_t KdeSelectivityEstimator::StreamBegin(const Box& box) {
  const StreamTicket& ticket = Admit(box);
  // Pipeline the gradient right behind the estimate chain: it crunches
  // while later queries stream in and is collected at feedback time.
  // Enqueuing it at delivery instead would let older tickets' feedback
  // move the bandwidth in between, so it would no longer match the
  // ticket's estimate.
  EnqueueTicketGradient(ticket);
  return ticket.id;
}

double KdeSelectivityEstimator::StreamDeliver(std::uint64_t ticket) {
  FKDE_CHECK_MSG(!tickets_.empty(), "no in-flight tickets");
  FKDE_CHECK_MSG(tickets_.front().id == ticket, "tickets deliver FIFO");
  FKDE_CHECK_MSG(!tickets_.front().delivered, "ticket already delivered");
  return DeliverFront();
}

void KdeSelectivityEstimator::StreamRetire(std::uint64_t ticket) {
  FKDE_CHECK_MSG(!tickets_.empty(), "no in-flight tickets");
  FKDE_CHECK_MSG(tickets_.front().id == ticket, "tickets retire FIFO");
  FKDE_CHECK_MSG(tickets_.front().delivered, "retire before delivery");
  RetireFront();
}

void KdeSelectivityEstimator::StreamFeedback(std::uint64_t ticket,
                                             double selectivity) {
  FKDE_CHECK_MSG(!tickets_.empty(), "no in-flight tickets");
  FKDE_CHECK_MSG(tickets_.front().id == ticket, "tickets retire FIFO");
  FKDE_CHECK_MSG(tickets_.front().delivered, "feedback before delivery");
  ApplyFeedback(RetireFront(), selectivity);
}

void KdeSelectivityEstimator::ApplyFeedback(const StreamTicket& ticket,
                                            double selectivity) {
  if (mode_ == Mode::kPeriodic) {
    ObservePeriodicFeedback(ticket.box, selectivity);
    return;
  }
  if (mode_ != Mode::kAdaptive) return;

  // Listing 1: collect the ticket's gradient pass enqueued at admission —
  // by now it has been hidden behind the query's execution — chain it
  // with ∂L/∂p̂ (eq. 14) from the ticket's raw estimate and feed the
  // per-query loss gradient to RMSprop.
  std::vector<double> est_grad;
  engine_->CollectGradientSlot(ticket.slot, &est_grad);
  const double dl_dp = LossDerivative(config_.loss, ticket.raw_estimate,
                                      selectivity, config_.lambda);
  for (double& g : est_grad) g *= dl_dp;
  std::vector<double> bandwidth = engine_->bandwidth();
  if (adaptive_->Observe(est_grad, &bandwidth)) {
    FKDE_CHECK_OK(engine_->SetBandwidth(bandwidth));
  }

  // Karma maintenance (Section 5.6): first collect the pass enqueued at
  // the PREVIOUS feedback — it ran while this query executed — and
  // replace the sample points it flagged (one d-float row upload each).
  // A quiesce (snapshot/eviction) may already have collected the pass
  // into pending_karma_slots_; either way the replacements apply here.
  // Then point the feedback context at THIS ticket's slot and enqueue the
  // scoring pass for its feedback: it reuses the slot's retained
  // contributions and runs while the database processes the next
  // statement.
  if (karma_.has_value() && table_ != nullptr && !table_->empty()) {
    if (karma_->update_pending()) {
      const std::vector<std::size_t> slots = karma_->CollectPending();
      pending_karma_slots_.insert(pending_karma_slots_.end(), slots.begin(),
                                  slots.end());
    }
    ApplyPendingKarma();
    engine_->SetFeedbackContext(ticket.slot, ticket.raw_estimate);
    karma_->EnqueueUpdate(ticket.box, selectivity);
  }
}

void KdeSelectivityEstimator::ApplyPendingKarma() {
  for (std::size_t slot : pending_karma_slots_) {
    const std::size_t row = table_->RandomRowIndex(&rng_);
    sample_->ReplaceRow(slot, table_->Row(row));
    karma_->ResetSlot(slot);
    ++karma_replacements_;
  }
  pending_karma_slots_.clear();
}

void KdeSelectivityEstimator::Quiesce() {
  // Undelivered tickets cannot be folded into host state: their slots
  // hold estimates the client has not seen yet. The serving layer retires
  // the stream before snapshotting or evicting a model. A delivered
  // ticket awaiting feedback is retired with its gradient dropped: the
  // next feedback for its box runs on a fresh ticket, which reproduces
  // the same gradient bitwise (the pass is a deterministic function of
  // sample, bandwidth and box).
  while (!tickets_.empty()) {
    FKDE_CHECK_MSG(tickets_.front().delivered,
                   "quiesce with undelivered tickets in flight");
    std::vector<double> discarded;
    engine_->CollectGradientSlot(tickets_.front().slot, &discarded);
    RetireFront();
  }
  if (karma_.has_value() && karma_->update_pending()) {
    const std::vector<std::size_t> slots = karma_->CollectPending();
    pending_karma_slots_.insert(pending_karma_slots_.end(), slots.begin(),
                                slots.end());
  }
}

void KdeSelectivityEstimator::OnInsert(std::span<const double> row,
                                       std::size_t table_rows_after) {
  if (mode_ != Mode::kAdaptive || !reservoir_.has_value()) return;
  const std::size_t slot = reservoir_->OnInsert(row, table_rows_after);
  if (slot != std::numeric_limits<std::size_t>::max() &&
      karma_.has_value()) {
    karma_->ResetSlot(slot);
  }
}

std::size_t KdeSelectivityEstimator::ModelBytes() const {
  std::size_t bytes = engine_->ModelBytes();
  if (karma_.has_value()) {
    bytes += sample_->size() * sizeof(double) + (sample_->size() + 7) / 8;
  }
  return bytes;
}

}  // namespace fkde
