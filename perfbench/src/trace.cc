#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "bench.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void RoundModel::Merge(const RoundModel& o) {
  estimates.insert(estimates.end(), o.estimates.begin(), o.estimates.end());
  abs_err_sum += o.abs_err_sum;
  modeled_s += o.modeled_s;
  modeled_latency_s.insert(modeled_latency_s.end(), o.modeled_latency_s.begin(),
                           o.modeled_latency_s.end());
  ledger.bytes_to_device += o.ledger.bytes_to_device;
  ledger.bytes_to_host += o.ledger.bytes_to_host;
  ledger.transfers_to_device += o.ledger.transfers_to_device;
  ledger.transfers_to_host += o.ledger.transfers_to_host;
  ledger.kernel_launches += o.ledger.kernel_launches;
  commands += o.commands;
  depth_high_water = std::max(depth_high_water, o.depth_high_water);
  dispatcher_wait_s += o.dispatcher_wait_s;
  stall_s += o.stall_s;
  device_modeled_s += o.device_modeled_s;
  scratch_hits += o.scratch_hits;
  scratch_misses += o.scratch_misses;
  karma_replacements += o.karma_replacements;
}

void RoundWall::Begin() {
  wall0_ = WallNow();
  cpu0_ = CpuNow();
}

void RoundWall::Add(double estimate_s, double cycle_s, std::size_t queries) {
  open_.estimate_s.push_back(estimate_s);
  open_.cycle_s.push_back(cycle_s);
  open_.queries += queries;
  if (open_.estimate_s.size() < window_) return;
  const double wall = WallNow();
  const double cpu = CpuNow();
  open_.wall_s = wall - wall0_;
  open_.cpu_s = cpu - cpu0_;
  windows_.push_back(std::move(open_));
  open_ = Window{};
  wall0_ = wall;
  cpu0_ = cpu;
}

void AppendFastestWindows(const std::vector<RoundWall>& rounds,
                          RoundWall::Window* pooled) {
  if (rounds.empty()) return;
  for (std::size_t w = 0; w < rounds[0].windows().size(); ++w) {
    const RoundWall::Window* best = nullptr;
    for (const RoundWall& round : rounds) {
      const RoundWall::Window& candidate = round.windows()[w];
      if (best == nullptr || candidate.wall_s < best->wall_s) best = &candidate;
    }
    pooled->wall_s += best->wall_s;
    pooled->cpu_s += best->cpu_s;
    pooled->queries += best->queries;
    pooled->estimate_s.insert(pooled->estimate_s.end(),
                              best->estimate_s.begin(), best->estimate_s.end());
    pooled->cycle_s.insert(pooled->cycle_s.end(), best->cycle_s.begin(),
                           best->cycle_s.end());
  }
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t query)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.id = tracer_->next_id_++;
  span.parent = tracer_->open_.empty()
                    ? 0
                    : tracer_->spans_[tracer_->open_.back()].id;
  span.query = query;
  span.start_s = WallNow();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = WallNow();
  tracer_->open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::LayerTimes() const {
  // Spans are appended in start order and nest strictly, so a child's
  // interval lies inside its parent's: self = duration - sum(children).
  std::vector<double> child_s(spans_.size(), 0.0);
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans_.size(); ++i) index_of[spans_[i].id] = i;
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    child_s[index_of[span.parent]] += span.end_s - span.start_s;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& t = out[spans_[i].name];
    const double duration = spans_[i].end_s - spans_[i].start_s;
    t.count += 1;
    t.total_s += duration;
    t.self_s += duration - child_s[i];
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"query\":%llu}}",
                 i == 0 ? "" : ",", s.name, (s.start_s - origin) * 1e6,
                 (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::size_t AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
}

void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

std::size_t PoolWorkersFor(std::size_t devices) {
  const std::size_t cpus = AllowedCpus();
  const std::size_t reserved = devices + 1;  // dispatchers + client.
  return cpus > reserved ? cpus - reserved : 1;
}

OwnedGroup::OwnedGroup(const std::vector<fkde::DeviceProfile>& profiles)
    : pool(std::make_unique<fkde::ThreadPool>(
          PoolWorkersFor(profiles.size()))),
      group(std::make_unique<fkde::DeviceGroup>(
          profiles, fkde::DeviceGroupOptions{}, pool.get())) {}

}  // namespace perfbench
