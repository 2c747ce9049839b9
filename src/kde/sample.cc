#include "kde/sample.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace fkde {

DeviceSample::DeviceSample(Device* device, std::size_t capacity,
                           std::size_t dims)
    : capacity_(capacity), dims_(dims) {
  FKDE_CHECK(device != nullptr);
  FKDE_CHECK(capacity > 0 && dims > 0);
  Shard shard;
  shard.device = device;
  shard.buffer = device->CreateBuffer<float>(capacity * dims);
  shards_.push_back(std::move(shard));
}

DeviceSample::DeviceSample(DeviceGroup* group, std::size_t capacity,
                           std::size_t dims)
    : group_(group), capacity_(capacity), dims_(dims) {
  FKDE_CHECK(group != nullptr);
  FKDE_CHECK(capacity > 0 && dims > 0);
  shards_.reserve(group->size());
  for (std::size_t i = 0; i < group->size(); ++i) {
    Shard shard;
    shard.device = group->device(i);
    // Full capacity per shard: rebalancing migrates rows without ever
    // reallocating device memory.
    shard.buffer = shard.device->CreateBuffer<float>(capacity * dims);
    shards_.push_back(std::move(shard));
  }
}

std::vector<std::size_t> DeviceSample::Apportion(
    std::size_t rows, const std::vector<double>& weights) const {
  const std::size_t n = shards_.size();
  FKDE_CHECK(weights.size() == n);
  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  FKDE_CHECK_MSG(total_weight > 0.0, "shard weights must be positive");

  // Largest-remainder apportionment: floors first, then hand the
  // leftover rows to the largest fractional parts.
  std::vector<std::size_t> sizes(n, 0);
  std::vector<std::pair<double, std::size_t>> remainders(n);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact =
        static_cast<double>(rows) * weights[i] / total_weight;
    sizes[i] = static_cast<std::size_t>(exact);
    remainders[i] = {exact - static_cast<double>(sizes[i]), i};
    assigned += sizes[i];
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned < rows; ++k, ++assigned) {
    sizes[remainders[k % n].second] += 1;
  }

  // Keep every shard warm enough to measure: raise undersized shards to
  // the floor, taking rows from the largest shard.
  const std::size_t floor_rows =
      group_ ? std::min(group_->options().min_shard_rows, rows / n)
             : std::size_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    while (sizes[i] < floor_rows) {
      const std::size_t largest = static_cast<std::size_t>(
          std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
      if (sizes[largest] <= floor_rows) break;
      sizes[largest] -= 1;
      sizes[i] += 1;
    }
  }
  return sizes;
}

std::vector<std::vector<std::uint32_t>> DeviceSample::InitialLayout(
    std::size_t rows) const {
  const std::vector<double> weights =
      group_ ? group_->InitialWeights() : std::vector<double>{1.0};
  const std::vector<std::size_t> sizes = Apportion(rows, weights);
  std::vector<std::vector<std::uint32_t>> layout(shards_.size());
  std::uint32_t next_row = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    layout[i].resize(sizes[i]);
    std::iota(layout[i].begin(), layout[i].end(), next_row);
    next_row += static_cast<std::uint32_t>(sizes[i]);
  }
  return layout;
}

template <typename ValueFn>
void DeviceSample::UploadLayout(
    std::size_t rows,
    const std::vector<std::vector<std::uint32_t>>& shard_slots,
    ValueFn value) {
  slot_map_.assign(rows, {0, 0});
  std::vector<float> staging;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    shard.size = shard_slots[i].size();
    shard.global_ids.assign(shard_slots[i].begin(), shard_slots[i].end());
    // Stage the shard's rows as packed strips; the rect transfer spreads
    // them at the device's capacity pitch.
    staging.resize(shard.size * dims_);
    for (std::size_t local = 0; local < shard.size; ++local) {
      const std::size_t global = shard.global_ids[local];
      slot_map_[global] = {static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(local)};
      for (std::size_t j = 0; j < dims_; ++j) {
        staging[j * shard.size + local] = value(global, j);
      }
    }
    // Transfers auto-declare their device-side access-sets (see
    // command_queue.h), so the sample's upload/gather/migration traffic
    // is hazard-checked without explicit declarations here.
    shard.device->CopyRectToDevice(staging.data(), shard.size, dims_,
                                   capacity_, &shard.buffer);
  }
  size_ = rows;
}

Status DeviceSample::LoadFromTable(const Table& table, Rng* rng) {
  if (table.empty()) {
    return Status::FailedPrecondition("cannot sample an empty table");
  }
  if (table.num_cols() != dims_) {
    return Status::InvalidArgument("table dims do not match sample dims");
  }
  const std::vector<std::size_t> rows =
      table.SampleWithoutReplacement(capacity_, rng);
  // Stage on the host (with double->float conversion, mirroring the
  // paper's type transformation during ANALYZE), then one bulk transfer
  // per shard.
  UploadLayout(rows.size(), InitialLayout(rows.size()),
               [&](std::size_t global, std::size_t j) {
                 return static_cast<float>(table.Row(rows[global])[j]);
               });
  return Status::OK();
}

Status DeviceSample::LoadRows(std::span<const double> rows_data,
                              std::size_t rows) {
  return LoadShardLayout(rows_data, rows, InitialLayout(rows));
}

Status DeviceSample::LoadShardLayout(
    std::span<const double> rows_data, std::size_t rows,
    const std::vector<std::vector<std::uint32_t>>& shard_slots) {
  if (rows_data.size() != rows * dims_) {
    return Status::InvalidArgument("row data size mismatch");
  }
  if (rows > capacity_) {
    return Status::InvalidArgument("more rows than sample capacity");
  }
  if (shard_slots.size() != shards_.size()) {
    return Status::InvalidArgument(
        "shard layout arity does not match the shard count");
  }
  std::vector<bool> seen(rows, false);
  std::size_t total = 0;
  for (const auto& slots : shard_slots) {
    total += slots.size();
    for (std::uint32_t slot : slots) {
      if (slot >= rows || seen[slot]) {
        return Status::InvalidArgument(
            "shard layout must cover every global slot exactly once");
      }
      seen[slot] = true;
    }
  }
  if (total != rows) {
    return Status::InvalidArgument("shard layout row count mismatch");
  }
  UploadLayout(rows, shard_slots, [&](std::size_t global, std::size_t j) {
    return static_cast<float>(rows_data[global * dims_ + j]);
  });
  return Status::OK();
}

std::vector<std::vector<std::uint32_t>> DeviceSample::ShardSlots() const {
  std::vector<std::vector<std::uint32_t>> slots;
  slots.reserve(shards_.size());
  for (const Shard& shard : shards_) slots.push_back(shard.global_ids);
  return slots;
}

Status DeviceSample::RestoreRates(std::span<const double> rates,
                                  std::size_t observed_passes) {
  if (rates.size() != shards_.size()) {
    return Status::InvalidArgument("rate arity does not match shard count");
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].rate_ewma = rates[i];
  }
  observed_passes_ = observed_passes;
  return Status::OK();
}

void DeviceSample::ReplaceRow(std::size_t slot, std::span<const double> row) {
  FKDE_CHECK(slot < size_);
  FKDE_CHECK(row.size() == dims_);
  float staging[64];
  FKDE_CHECK_MSG(dims_ <= 64, "dims beyond the stack staging buffer");
  for (std::size_t j = 0; j < dims_; ++j) {
    staging[j] = static_cast<float>(row[j]);
  }
  // One d-float transfer: one element into each strip.
  const auto [shard, local] = slot_map_[slot];
  shards_[shard].device->CopyRectToDevice(staging, 1, dims_, capacity_,
                                          &shards_[shard].buffer, local);
}

std::vector<double> DeviceSample::ReadRow(std::size_t slot) {
  FKDE_CHECK(slot < size_);
  const auto [shard, local] = slot_map_[slot];
  std::vector<float> staging(dims_);
  shards_[shard].device->CopyRectToHost(shards_[shard].buffer, local, 1,
                                        dims_, capacity_, staging.data());
  return std::vector<double>(staging.begin(), staging.end());
}

std::vector<double> DeviceSample::GatherRows() {
  std::vector<double> rows(size_ * dims_);
  std::vector<float> staging;
  for (const Shard& shard : shards_) {
    if (shard.size == 0) continue;
    staging.resize(shard.size * dims_);
    shard.device->CopyRectToHost(shard.buffer, 0, shard.size, dims_,
                                 capacity_, staging.data());
    for (std::size_t local = 0; local < shard.size; ++local) {
      const std::size_t global = shard.global_ids[local];
      for (std::size_t j = 0; j < dims_; ++j) {
        rows[global * dims_ + j] =
            static_cast<double>(staging[j * shard.size + local]);
      }
    }
  }
  return rows;
}

void DeviceSample::ObserveShardSeconds(std::span<const double> busy_seconds) {
  if (group_ == nullptr) return;
  FKDE_CHECK(busy_seconds.size() == shards_.size());
  const double alpha = group_->options().ewma_alpha;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = shards_[i];
    if (shard.size == 0 || busy_seconds[i] <= 0.0) continue;
    const double rate =
        static_cast<double>(shard.size) / busy_seconds[i];
    shard.rate_ewma = shard.rate_ewma == 0.0
                          ? rate
                          : alpha * rate + (1.0 - alpha) * shard.rate_ewma;
  }
  observed_passes_ += 1;
}

bool DeviceSample::MaybeRebalance() {
  if (group_ == nullptr || shards_.size() < 2 || size_ == 0) return false;
  const DeviceGroupOptions& options = group_->options();
  if (!options.rebalance) return false;
  if (observed_passes_ < options.rebalance_interval) return false;
  observed_passes_ = 0;

  // Until every non-empty shard has a measurement the initial
  // throughput-weighted split stands.
  std::vector<double> weights(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].size > 0 && shards_[i].rate_ewma == 0.0) return false;
    weights[i] = shards_[i].rate_ewma;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // An empty shard never measures; seed it with the slowest measured
    // rate so it can re-enter the partition.
    if (weights[i] == 0.0) {
      double slowest = 0.0;
      for (double w : weights) {
        if (w > 0.0) slowest = slowest == 0.0 ? w : std::min(slowest, w);
      }
      weights[i] = slowest;
    }
  }

  const std::vector<std::size_t> targets = Apportion(size_, weights);
  bool beyond_trigger = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const double target = static_cast<double>(targets[i]);
    const double deviation =
        std::abs(static_cast<double>(shards_[i].size) - target);
    if (deviation > std::max(1.0, options.rebalance_trigger * target)) {
      beyond_trigger = true;
    }
  }
  if (!beyond_trigger) return false;

  // Peel rows off donor tails into receiver tails until every shard
  // matches its target. Tail moves never shift surviving device rows.
  bool migrated = false;
  for (std::size_t to = 0; to < shards_.size(); ++to) {
    while (shards_[to].size < targets[to]) {
      std::size_t from = shards_.size();
      std::size_t excess = 0;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (shards_[i].size > targets[i] &&
            shards_[i].size - targets[i] > excess) {
          from = i;
          excess = shards_[i].size - targets[i];
        }
      }
      if (from == shards_.size()) break;
      const std::size_t count =
          std::min(excess, targets[to] - shards_[to].size);
      MigrateRows(from, to, count);
      migrated = true;
    }
  }
  if (migrated) migration_epoch_ += 1;
  return migrated;
}

void DeviceSample::MigrateRows(std::size_t from, std::size_t to,
                               std::size_t count) {
  Shard& donor = shards_[from];
  Shard& receiver = shards_[to];
  FKDE_CHECK(count > 0 && count <= donor.size);
  FKDE_CHECK(receiver.size + count <= capacity_);
  // Ordinary metered transfers: donor tail read-back, receiver tail
  // upload, each one rect transfer over the strips. The blocking
  // read-back drains any work still enqueued on the donor; the upload
  // lands beyond the receiver's live range, so its in-order queue needs
  // no extra synchronization.
  std::vector<float> staging(count * dims_);
  donor.device->CopyRectToHost(donor.buffer, donor.size - count, count, dims_,
                               capacity_, staging.data());
  receiver.device->CopyRectToDevice(staging.data(), count, dims_, capacity_,
                                    &receiver.buffer, receiver.size);
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t global = donor.global_ids[donor.size - count + j];
    slot_map_[global] = {static_cast<std::uint32_t>(to),
                         static_cast<std::uint32_t>(receiver.size + j)};
    receiver.global_ids.push_back(global);
  }
  donor.global_ids.resize(donor.size - count);
  donor.size -= count;
  receiver.size += count;
  rows_migrated_ += count;
}

std::vector<std::size_t> DeviceSample::shard_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) sizes.push_back(shard.size);
  return sizes;
}

std::vector<double> DeviceSample::shard_rates() const {
  std::vector<double> rates;
  rates.reserve(shards_.size());
  for (const Shard& shard : shards_) rates.push_back(shard.rate_ewma);
  return rates;
}

}  // namespace fkde
