#include "parallel/command_queue.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <utility>

#include "parallel/device.h"
#include "parallel/hazard_checker.h"

namespace fkde {

namespace internal {

void EventState::MarkExecuted() {
  std::lock_guard<std::mutex> lock(mu);
  executed = true;
}

void EventState::MarkComplete() {
  {
    std::lock_guard<std::mutex> lock(mu);
    complete = true;
  }
  cv.notify_all();
}

void EventState::WaitReal() {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [this] { return complete; });
}

}  // namespace internal

bool Event::complete() const {
  if (!state_) return true;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->complete;
}

void Event::Wait() const {
  if (!state_) return;
  // Check before touching the queue: a complete event may outlive it.
  if (!complete()) state_->queue->RunUntil(state_->queue_index);
  state_->WaitReal();
  state_->device->SyncHostTo(state_->modeled_end_s);
  if (HazardChecker* checker = state_->device->hazard_checker()) {
    checker->OnEventWaited(*state_);
  }
}

double Event::modeled_end_seconds() const {
  return state_ ? state_->modeled_end_s : 0.0;
}

namespace {

std::uint64_t NextQueueId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

CommandQueue::CommandQueue(Device* device)
    : device_(device),
      id_(NextQueueId()),
      idle_from_(std::chrono::steady_clock::now()) {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

CommandQueue::~CommandQueue() {
  // Destroying a queue with in-flight commands must not drop their
  // modeled time: Finish() stalls the host clock to the last command's
  // modeled end before the dispatcher is joined.
  Finish();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  dispatcher_.join();
  FKDE_CHECK_MSG(pending_.empty(),
                 "command queue destroyed without draining");
}

double CommandQueue::MaxModeledEnd(std::span<const Event> wait_list) {
  double end = 0.0;
  for (const Event& e : wait_list) {
    end = std::max(end, e.modeled_end_seconds());
  }
  return end;
}

Event CommandQueue::EnqueueLaunch(
    const char* kernel_name, std::size_t global_size, double ops_per_item,
    std::function<void(std::size_t, std::size_t)> body,
    std::span<const BufferAccess> accesses,
    std::span<const Event> wait_list) {
  return EnqueueKernel(kernel_name, global_size, kLaunchGrain,
                       static_cast<double>(global_size) * ops_per_item,
                       std::move(body), accesses, wait_list);
}

Event CommandQueue::EnqueueKernel(
    const char* kernel_name, std::size_t items, std::size_t grain,
    double work_units, std::function<void(std::size_t, std::size_t)> body,
    std::span<const BufferAccess> accesses,
    std::span<const Event> wait_list) {
  const double end =
      device_->BookLaunch(work_units, MaxModeledEnd(wait_list));
  ThreadPool* pool = device_->pool();
  auto run = [pool, items, grain, body = std::move(body)] {
    if (items == 0) return;
    pool->ParallelFor(items, grain, body);
  };
  return Push(std::move(run), end, CommandKind::kKernel, kernel_name,
              accesses, wait_list);
}

Event CommandQueue::EnqueueCopyBytes(void* dst, std::size_t dst_pitch,
                                     const void* src, std::size_t src_pitch,
                                     std::size_t run_bytes, std::size_t runs,
                                     bool to_device,
                                     const BufferAccess& device_access,
                                     std::span<const Event> wait_list) {
  const double end = device_->BookTransfer(run_bytes * runs, to_device,
                                           MaxModeledEnd(wait_list));
  auto run = [dst, dst_pitch, src, src_pitch, run_bytes, runs] {
    for (std::size_t k = 0; k < runs; ++k) {
      std::memcpy(static_cast<char*>(dst) + k * dst_pitch,
                  static_cast<const char*>(src) + k * src_pitch, run_bytes);
    }
  };
  return Push(std::move(run), end,
              to_device ? CommandKind::kCopyToDevice
                        : CommandKind::kCopyToHost,
              to_device ? "copy_to_device" : "copy_to_host",
              std::span<const BufferAccess>(&device_access, 1), wait_list);
}

Event CommandQueue::Push(std::function<void()> run, double modeled_end_s,
                         CommandKind kind, const char* name,
                         std::span<const BufferAccess> accesses,
                         std::span<const Event> wait_list) {
  auto state = std::make_shared<internal::EventState>();
  state->modeled_end_s = modeled_end_s;
  state->device = device_;
  state->queue = this;
  state->queue_id = id_;
  Command command;
  command.run = std::move(run);
  for (const Event& e : wait_list) {
    if (e.valid()) command.deps.push_back(e);
  }
  command.done = state;
  Event event(std::move(state));
  {
    std::lock_guard<std::mutex> lock(mu_);
    command.done->queue_index = ++next_index_;
    // Record before the dispatcher can see the command: the checker
    // writes the happens-before clock into the (not yet shared) state.
    if (HazardChecker* checker = device_->hazard_checker()) {
      checker->RecordCommand(command.done, kind, name, accesses, wait_list);
    }
    if (pending_.empty() && !running_) {
      // The queue starved from its last retirement until now.
      dispatcher_wait_s_ += std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - idle_from_)
                                .count();
    }
    pending_.push_back(std::move(command));
    depth_high_water_ = std::max(depth_high_water_, pending_.size());
    last_ = event;
  }
  cv_.notify_one();
  return event;
}

void CommandQueue::Finish() {
  Event last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last = last_;
  }
  last.Wait();
}

CommandQueueStats CommandQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CommandQueueStats stats;
  stats.total_commands = next_index_;
  stats.depth_high_water = depth_high_water_;
  stats.pending = pending_.size();
  stats.dispatcher_wait_s = dispatcher_wait_s_;
  return stats;
}

void CommandQueue::Execute(Command& command) noexcept {
  // Cross-queue dependencies: wait for the real completion only — their
  // modeled ends were already folded into this command's modeled start.
  for (const Event& dep : command.deps) dep.state_->WaitReal();
  if (command.run) command.run();
  // Drop the closure before completion becomes observable: captured
  // resources (scratch handles parking back into the pool) must be
  // released by the time a host Wait()/Finish() returns. The body has
  // returned, so the command no longer touches what it releases.
  command.done->MarkExecuted();
  command.run = nullptr;
  command.done->MarkComplete();
}

CommandQueue::Command CommandQueue::TakeFrontLocked() {
  running_ = true;
  Command command = std::move(pending_.front());
  pending_.pop_front();
  return command;
}

void CommandQueue::ReleaseLocked() {
  running_ = false;
  if (pending_.empty()) idle_from_ = std::chrono::steady_clock::now();
}

void CommandQueue::RunUntil(std::uint64_t target_index) {
  std::unique_lock<std::mutex> lock(mu_);
  bool ran = false;
  // In order, so the target is still pending iff the front's index has
  // not passed it. mu_ is never held while a body runs.
  while (!running_ && !pending_.empty() &&
         pending_.front().done->queue_index <= target_index) {
    {
      Command command = TakeFrontLocked();
      lock.unlock();
      Execute(command);
    }
    lock.lock();
    ReleaseLocked();
    ran = true;
  }
  // Later commands stay queued. A dispatcher woken for them while this
  // thread held the queue went back to sleep, so wake it again.
  const bool hand_back = ran && !pending_.empty();
  lock.unlock();
  if (hand_back) cv_.notify_one();
}

void CommandQueue::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // mu_ is released inside the wait, so host enqueues and waiters
    // proceed; a waiting host may take the queue while this sleeps.
    cv_.wait(lock, [this] {
      return (!running_ && !pending_.empty()) ||
             (shutdown_ && pending_.empty());
    });
    if (pending_.empty()) return;  // Shut down and fully drained.
    {
      Command command = TakeFrontLocked();
      lock.unlock();
      Execute(command);
    }
    lock.lock();
    ReleaseLocked();
  }
}

}  // namespace fkde
