#include "parallel/hazard_checker.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "common/logging.h"

namespace fkde {

namespace internal {

BufferRegistry& BufferRegistry::Global() {
  static BufferRegistry* registry = new BufferRegistry();
  return *registry;
}

std::uint64_t BufferRegistry::Register(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  alive_.emplace(id, bytes);
  return id;
}

void BufferRegistry::Release(std::uint64_t id) {
  // Notify outside the registry lock: observers take the checker lock,
  // and checkers query the registry while holding theirs — notifying
  // under mu_ would invert that order.
  std::vector<std::shared_ptr<HazardChecker>> observers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    alive_.erase(id);
    if (!observers_.empty()) {
      observers.reserve(observers_.size());
      std::size_t kept = 0;
      for (std::weak_ptr<HazardChecker>& weak : observers_) {
        if (std::shared_ptr<HazardChecker> checker = weak.lock()) {
          observers.push_back(std::move(checker));
          observers_[kept++] = std::move(weak);
        }
      }
      observers_.resize(kept);  // Prune expired checkers lazily.
    }
  }
  for (const std::shared_ptr<HazardChecker>& checker : observers) {
    checker->OnBufferReleased(id);
  }
}

bool BufferRegistry::Lookup(std::uint64_t id, std::size_t* bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = alive_.find(id);
  if (it == alive_.end()) return false;
  if (bytes != nullptr) *bytes = it->second;
  return true;
}

std::uint64_t BufferRegistry::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

void BufferRegistry::AddObserver(std::weak_ptr<HazardChecker> observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observers_.push_back(std::move(observer));
}

namespace {

/// True once the command's body returned: it touches no buffer any more,
/// even while the executing thread is still releasing its captures.
bool StateExecuted(const std::shared_ptr<EventState>& state) {
  if (!state) return true;
  std::lock_guard<std::mutex> lock(state->mu);
  return state->executed;
}

}  // namespace

}  // namespace internal

const char* HazardKindName(HazardKind kind) {
  switch (kind) {
    case HazardKind::kRaw:
      return "read-after-write race";
    case HazardKind::kWar:
      return "write-after-read race";
    case HazardKind::kWaw:
      return "write-after-write race";
    case HazardKind::kUseAfterFree:
      return "use-after-free";
    case HazardKind::kUseBeforeInit:
      return "use-before-initialization";
    case HazardKind::kLeakedScratch:
      return "scratch released in flight";
    case HazardKind::kUnwaitedReadback:
      return "unwaited readback";
  }
  return "unknown hazard";
}

std::shared_ptr<HazardChecker> HazardChecker::Create(HazardMode mode) {
  FKDE_CHECK_MSG(mode != HazardMode::kOff,
                 "create a checker with kDeferred or kStrict; kOff means "
                 "detach (Device::EnableHazardChecking(HazardMode::kOff))");
  std::shared_ptr<HazardChecker> checker(new HazardChecker(mode));
  internal::BufferRegistry::Global().AddObserver(checker);
  return checker;
}

void HazardChecker::MergeClock(Clock* clock, std::uint64_t queue,
                               std::uint64_t index) {
  auto it = std::lower_bound(
      clock->begin(), clock->end(), queue,
      [](const auto& entry, std::uint64_t q) { return entry.first < q; });
  if (it != clock->end() && it->first == queue) {
    it->second = std::max(it->second, index);
  } else {
    clock->insert(it, {queue, index});
  }
}

std::uint64_t HazardChecker::ClockAt(const Clock& clock, std::uint64_t queue) {
  auto it = std::lower_bound(
      clock.begin(), clock.end(), queue,
      [](const auto& entry, std::uint64_t q) { return entry.first < q; });
  return (it != clock.end() && it->first == queue) ? it->second : 0;
}

bool HazardChecker::HappensBefore(const CommandRef& ref, const Clock& clock) {
  return ClockAt(clock, ref.queue_id) >= ref.index;
}

std::string HazardChecker::DescribeRef(const CommandRef& ref) {
  std::ostringstream os;
  os << "'" << ref.name << "' (queue " << ref.queue_id << ", cmd "
     << ref.index << ")";
  return os.str();
}

void HazardChecker::AddReportLocked(HazardKind kind, std::uint64_t buffer_id,
                                    std::string message) {
  if (mode_ == HazardMode::kStrict) {
    FKDE_CHECK_MSG(false, "hazard detected: " + message);
  }
  reports_.push_back(HazardReport{kind, buffer_id, std::move(message)});
}

bool HazardChecker::OpaqueCoversLocked(const Clock& clock) const {
  for (const auto& [queue, min_index] : opaque_min_index_) {
    if (ClockAt(clock, queue) >= min_index) return true;
  }
  return false;
}

namespace {

using ByteRange = std::pair<std::size_t, std::size_t>;

/// Merges [a, b) into a sorted, disjoint range set.
void AddRange(std::vector<ByteRange>* set, std::size_t a, std::size_t b) {
  if (a >= b) return;
  auto it = set->begin();
  while (it != set->end() && it->second < a) ++it;
  if (it == set->end() || it->first > b) {
    set->insert(it, {a, b});
    return;
  }
  // Overlaps or abuts a run of existing ranges: fold them into one.
  it->first = std::min(it->first, a);
  it->second = std::max(it->second, b);
  auto next = it + 1;
  while (next != set->end() && next->first <= it->second) {
    it->second = std::max(it->second, next->second);
    next = set->erase(next);
  }
}

/// First sub-range of [a, b) not covered by the set; false if covered.
bool FindUncovered(const std::vector<ByteRange>& set, std::size_t a,
                   std::size_t b, ByteRange* gap) {
  std::size_t cursor = a;
  for (const ByteRange& range : set) {
    if (range.second <= cursor) continue;
    if (range.first > cursor) {
      *gap = {cursor, std::min(b, range.first)};
      return cursor < b;
    }
    cursor = range.second;
    if (cursor >= b) return false;
  }
  if (cursor < b) {
    *gap = {cursor, b};
    return true;
  }
  return false;
}

}  // namespace

void HazardChecker::CheckAccessLocked(const BufferAccess& access,
                                      const Clock& clock,
                                      const CommandRef& ref) {
  if (access.buffer_id == 0 || access.length_bytes == 0) return;
  std::size_t buffer_bytes = 0;
  internal::BufferRegistry& registry = internal::BufferRegistry::Global();
  if (!registry.Lookup(access.buffer_id, &buffer_bytes)) {
    std::ostringstream os;
    os << HazardKindName(HazardKind::kUseAfterFree) << ": " << DescribeRef(ref)
       << " declares access to buffer " << access.buffer_id << " which "
       << (access.buffer_id < registry.watermark() ? "was already released"
                                                   : "was never registered");
    AddReportLocked(HazardKind::kUseAfterFree, access.buffer_id, os.str());
    return;
  }
  BufferState& bs = buffers_[access.buffer_id];
  // One report per (kind, conflicting command) even when the conflict
  // spans several intervals or runs.
  Reported reported;
  for (std::size_t k = 0; k < access.runs; ++k) {
    const std::size_t first = access.offset_bytes + k * access.pitch_bytes;
    const std::size_t a = std::min(first, buffer_bytes);
    const std::size_t b = std::min(first + access.length_bytes, buffer_bytes);
    if (a < b) CheckRangeLocked(access, a, b, clock, ref, &bs, &reported);
  }
}

void HazardChecker::CheckRangeLocked(const BufferAccess& access,
                                     std::size_t a, std::size_t b,
                                     const Clock& clock,
                                     const CommandRef& ref,
                                     BufferState* state, Reported* reported) {
  BufferState& bs = *state;
  const bool is_read = access.mode != AccessMode::kWrite;
  const bool is_write = access.mode != AccessMode::kRead;

  if (is_read) {
    ByteRange gap;
    // Keyed by the reader itself: one report per access, however many
    // of its runs read uninitialized bytes.
    const std::tuple<HazardKind, std::uint64_t, std::uint64_t> self{
        HazardKind::kUseBeforeInit, ref.queue_id, ref.index};
    if (FindUncovered(bs.init, a, b, &gap) && !OpaqueCoversLocked(clock) &&
        std::find(reported->begin(), reported->end(), self) ==
            reported->end()) {
      reported->push_back(self);
      std::ostringstream os;
      os << HazardKindName(HazardKind::kUseBeforeInit) << ": "
         << DescribeRef(ref) << " reads bytes [" << gap.first << ", "
         << gap.second << ") of buffer " << access.buffer_id
         << " which no prior command initialized";
      AddReportLocked(HazardKind::kUseBeforeInit, access.buffer_id, os.str());
    }
  }

  // Partition the buffer's interval map so [a, b) is covered by exact
  // intervals, then check the new access against each interval's per-queue
  // writer/reader frontiers and fold it in.
  auto [lo, hi] = EnsureIntervals(&bs.intervals, a, b);
  auto report_once = [&](HazardKind kind, const CommandRef& other,
                         const char* verb) {
    const std::tuple<HazardKind, std::uint64_t, std::uint64_t> key{
        kind, other.queue_id, other.index};
    if (std::find(reported->begin(), reported->end(), key) !=
        reported->end()) {
      return;
    }
    reported->push_back(key);
    std::ostringstream os;
    os << HazardKindName(kind) << " on buffer " << access.buffer_id
       << " bytes [" << a << ", " << b << "): " << DescribeRef(ref) << " "
       << (is_write ? "writes" : "reads") << " data " << verb << " by "
       << DescribeRef(other) << " with no ordering path between them";
    AddReportLocked(kind, access.buffer_id, os.str());
  };
  for (std::size_t i = lo; i < hi; ++i) {
    Interval& interval = bs.intervals[i];
    for (const auto& [queue, writer] : interval.writers) {
      if (HappensBefore(writer, clock)) continue;
      report_once(is_write ? HazardKind::kWaw : HazardKind::kRaw, writer,
                  "written");
    }
    if (is_write) {
      for (const auto& [queue, reader] : interval.readers) {
        if (HappensBefore(reader, clock)) continue;
        report_once(HazardKind::kWar, reader, "still being read");
      }
      // A write supersedes the whole frontier: anything ordered after
      // this command is transitively ordered after every access it was
      // checked against (or the race was just reported).
      interval.writers.clear();
      interval.writers.emplace_back(ref.queue_id, ref);
      interval.readers.clear();
    } else {
      auto it = std::lower_bound(
          interval.readers.begin(), interval.readers.end(), ref.queue_id,
          [](const auto& entry, std::uint64_t q) { return entry.first < q; });
      if (it != interval.readers.end() && it->first == ref.queue_id) {
        it->second = ref;
      } else {
        interval.readers.insert(it, {ref.queue_id, ref});
      }
    }
  }
  if (is_write) AddRange(&bs.init, a, b);
  CoalesceIntervalsLocked(&bs.intervals, lo > 0 ? lo - 1 : 0, hi);
}

std::pair<std::size_t, std::size_t> HazardChecker::EnsureIntervals(
    std::vector<Interval>* intervals, std::size_t a, std::size_t b) {
  std::size_t i = 0;
  while (i < intervals->size() && (*intervals)[i].end <= a) ++i;
  if (i < intervals->size() && (*intervals)[i].begin < a) {
    Interval right = (*intervals)[i];
    right.begin = a;
    (*intervals)[i].end = a;
    intervals->insert(intervals->begin() + i + 1, std::move(right));
    ++i;
  }
  const std::size_t first = i;
  std::size_t cursor = a;
  while (cursor < b) {
    if (i < intervals->size() && (*intervals)[i].begin == cursor) {
      if ((*intervals)[i].end > b) {
        Interval right = (*intervals)[i];
        right.begin = b;
        (*intervals)[i].end = b;
        intervals->insert(intervals->begin() + i + 1, std::move(right));
      }
      cursor = (*intervals)[i].end;
      ++i;
    } else {
      std::size_t gap_end = b;
      if (i < intervals->size()) {
        gap_end = std::min(b, (*intervals)[i].begin);
      }
      Interval gap;
      gap.begin = cursor;
      gap.end = gap_end;
      intervals->insert(intervals->begin() + i, std::move(gap));
      cursor = gap_end;
      ++i;
    }
  }
  return {first, i};
}

bool HazardChecker::SameCommands(const Frontier& x, const Frontier& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].first != y[i].first || x[i].second.index != y[i].second.index) {
      return false;
    }
  }
  return true;
}

void HazardChecker::CoalesceIntervalsLocked(std::vector<Interval>* intervals,
                                            std::size_t lo, std::size_t hi) {
  // Merge adjacent intervals whose frontiers record the same commands —
  // full-buffer writes re-collapse the map to one interval, bounding
  // fragmentation for cyclic write/read patterns.
  if (intervals->empty()) return;
  std::size_t i = std::min(lo, intervals->size() - 1);
  std::size_t end = std::min(hi + 1, intervals->size());
  while (i + 1 < end) {
    Interval& cur = (*intervals)[i];
    Interval& next = (*intervals)[i + 1];
    if (cur.end == next.begin && SameCommands(cur.writers, next.writers) &&
        SameCommands(cur.readers, next.readers)) {
      cur.end = next.end;
      intervals->erase(intervals->begin() + i + 1);
      --end;
    } else {
      ++i;
    }
  }
}

void HazardChecker::RecordCommand(
    const std::shared_ptr<internal::EventState>& state, CommandKind kind,
    const char* name, std::span<const BufferAccess> accesses,
    std::span<const Event> wait_list) {
  std::lock_guard<std::mutex> lock(mu_);
  Clock clock = queue_tails_[state->queue_id];
  for (const Event& e : wait_list) {
    if (!e.valid()) continue;
    const internal::EventState& dep = *e.state_;
    if (!dep.hazard_clock.empty()) {
      for (const auto& [queue, index] : dep.hazard_clock) {
        MergeClock(&clock, queue, index);
      }
    } else if (dep.queue_id != 0) {
      // Recorded before this checker attached: fall back to the direct
      // edge (its own transitive deps are unknown but already complete
      // or unchecked).
      MergeClock(&clock, dep.queue_id, dep.queue_index);
    }
  }
  MergeClock(&clock, state->queue_id, state->queue_index);
  state->hazard_clock = clock;
  queue_tails_[state->queue_id] = std::move(clock);
  const Clock& merged = state->hazard_clock;

  CommandRef ref;
  ref.queue_id = state->queue_id;
  ref.index = state->queue_index;
  ref.name = name != nullptr ? name : "<unnamed>";
  ref.state = state;

  if (kind == CommandKind::kKernel && accesses.empty()) {
    // Opaque kernel: indices grow monotonically, so the first recorded
    // one per queue is the earliest.
    opaque_min_index_.try_emplace(state->queue_id, state->queue_index);
  }
  for (const BufferAccess& access : accesses) {
    CheckAccessLocked(access, merged, ref);
  }
  if (kind == CommandKind::kCopyToHost) {
    readbacks_.push_back(std::move(ref));
  }
}

void HazardChecker::OnEventWaited(const internal::EventState& state) {
  if (state.queue_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!state.hazard_clock.empty()) {
    for (const auto& [queue, index] : state.hazard_clock) {
      std::uint64_t& frontier = waited_frontier_[queue];
      frontier = std::max(frontier, index);
    }
  } else {
    std::uint64_t& frontier = waited_frontier_[state.queue_id];
    frontier = std::max(frontier, state.queue_index);
  }
  if (readbacks_.size() > 1024) {
    // Opportunistic prune of covered readbacks so long strict runs stay
    // bounded.
    std::erase_if(readbacks_, [this](const CommandRef& ref) {
      return waited_frontier_[ref.queue_id] >= ref.index;
    });
  }
}

void HazardChecker::ReportInFlightLocked(std::uint64_t id, HazardKind kind,
                                         const char* what) {
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return;
  for (const Interval& interval : it->second.intervals) {
    for (const Frontier* frontier : {&interval.writers, &interval.readers}) {
      for (const auto& [queue, ref] : *frontier) {
        if (internal::StateExecuted(ref.state)) continue;
        std::ostringstream os;
        os << HazardKindName(kind) << ": buffer " << id << " " << what
           << " while " << DescribeRef(ref)
           << " still references bytes [" << interval.begin << ", "
           << interval.end << ") in flight";
        AddReportLocked(kind, id, os.str());
        return;
      }
    }
  }
}

void HazardChecker::OnBufferReleased(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  ReportInFlightLocked(id, HazardKind::kUseAfterFree, "released");
  buffers_.erase(id);
}

void HazardChecker::OnScratchParked(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  ReportInFlightLocked(id, HazardKind::kLeakedScratch,
                       "parked back into the scratch pool");
}

void HazardChecker::OnScratchReused(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) return;
  // The pool handoff is an ordering edge (the previous user's commands
  // completed before the park): logically a fresh buffer with stale
  // contents.
  it->second.intervals.clear();
  it->second.init.clear();
}

std::vector<HazardReport> HazardChecker::Validate() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HazardReport> out = reports_;
  std::erase_if(readbacks_, [this](const CommandRef& ref) {
    auto it = waited_frontier_.find(ref.queue_id);
    return it != waited_frontier_.end() && it->second >= ref.index;
  });
  for (const CommandRef& ref : readbacks_) {
    std::ostringstream os;
    os << HazardKindName(HazardKind::kUnwaitedReadback) << ": "
       << DescribeRef(ref)
       << " copies device data to host staging memory, but no "
          "Event::Wait()/Finish() ordered the host after it — the host "
          "may read torn staging";
    if (mode_ == HazardMode::kStrict) {
      FKDE_CHECK_MSG(false, "hazard detected: " + os.str());
    }
    out.push_back(
        HazardReport{HazardKind::kUnwaitedReadback, 0, os.str()});
  }
  return out;
}

std::vector<HazardReport> HazardChecker::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

}  // namespace fkde
