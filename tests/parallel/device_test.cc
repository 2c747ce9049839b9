#include "parallel/device.h"

#include <numeric>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fkde {
namespace {

// DeviceBuffer models a device allocation: copying one would duplicate
// "device memory" without a metered transfer, so it is move-only.
static_assert(!std::is_copy_constructible_v<DeviceBuffer<float>>);
static_assert(!std::is_copy_assignable_v<DeviceBuffer<float>>);
static_assert(std::is_nothrow_move_constructible_v<DeviceBuffer<double>>);
static_assert(std::is_nothrow_move_assignable_v<DeviceBuffer<double>>);

TEST(Device, RoundTripTransfer) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<float>(100);
  std::vector<float> in(100);
  std::iota(in.begin(), in.end(), 0.0f);
  device.CopyToDevice(in.data(), in.size(), &buffer);
  std::vector<float> out(100);
  device.CopyToHost(buffer, 0, 100, out.data());
  EXPECT_EQ(in, out);
}

TEST(Device, PartialTransferWithOffset) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(10);
  const std::vector<double> zeros(10, 0.0);
  device.CopyToDevice(zeros.data(), 10, &buffer);
  const double value = 42.0;
  device.CopyToDevice(&value, 1, &buffer, 3);
  std::vector<double> out(10);
  device.CopyToHost(buffer, 0, 10, out.data());
  EXPECT_DOUBLE_EQ(out[3], 42.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
}

TEST(Device, LedgerCountsBytesAndTransfers) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<float>(256);
  std::vector<float> data(256, 1.0f);
  device.CopyToDevice(data.data(), 256, &buffer);
  device.CopyToHost(buffer, 0, 16, data.data());
  const TransferLedger& ledger = device.ledger();
  EXPECT_EQ(ledger.transfers_to_device, 1u);
  EXPECT_EQ(ledger.transfers_to_host, 1u);
  EXPECT_EQ(ledger.bytes_to_device, 256u * sizeof(float));
  EXPECT_EQ(ledger.bytes_to_host, 16u * sizeof(float));
  EXPECT_EQ(ledger.total_bytes(), (256u + 16u) * sizeof(float));
  device.ResetLedger();
  EXPECT_EQ(device.ledger().total_bytes(), 0u);
}

TEST(Device, LaunchExecutesKernelBody) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(1000);
  device.Launch("fill", 1000, 1.0, std::tuple(Out(buffer)),
                [](std::size_t begin, std::size_t end, double* data) {
                  for (std::size_t i = begin; i < end; ++i) {
                    data[i] = static_cast<double>(i) * 2.0;
                  }
                });
  std::vector<double> out(1000);
  device.CopyToHost(buffer, 0, 1000, out.data());
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[999], 1998.0);
  EXPECT_EQ(device.ledger().kernel_launches, 1u);
}

TEST(Device, ModeledTimeAccumulatesLaunchAndCompute) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.transfer_latency_s = 0.0;
  profile.transfer_bandwidth = 1e18;
  profile.compute_throughput = 1e6;  // 1M ops/s.
  Device device(profile);
  device.Launch("noop", 1000, 1.0, [](std::size_t, std::size_t) {});
  // 1 ms launch + 1000 ops / 1e6 ops/s = 1 ms -> 2 ms total.
  EXPECT_NEAR(device.ModeledSeconds(), 2e-3, 1e-9);
  device.ResetModeledTime();
  EXPECT_DOUBLE_EQ(device.ModeledSeconds(), 0.0);
}

TEST(Device, EnqueuedLaunchHidesBehindExternalHostWork) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1.0;  // Absurdly slow: compute would be huge.
  Device device(profile);
  const Event event = device.default_queue()->EnqueueLaunch(
      "hidden", 1000000, 1.0, [](std::size_t, std::size_t) {});
  // Only the submission latency has been charged so far.
  EXPECT_NEAR(device.ModeledSeconds(), 1e-3, 1e-9);
  // The "database" executes the query while the device crunches; by the
  // time the host collects the event, the compute has long finished on
  // the modeled timeline — no stall.
  device.AdvanceHostTime(2e6);
  event.Wait();
  EXPECT_NEAR(device.ModeledSeconds(), 1e-3, 1e-9);
  EXPECT_DOUBLE_EQ(device.HostStallSeconds(), 0.0);
  // The device itself was busy for the full modeled compute duration.
  EXPECT_NEAR(device.DeviceBusySeconds(), 1e6, 1.0);
}

TEST(Device, WaitChargesTheUnhiddenRemainderAsStall) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1e6;  // 1000 items -> 1 ms of compute.
  Device device(profile);
  const Event event = device.default_queue()->EnqueueLaunch(
      "partially_hidden", 1000, 1.0, [](std::size_t, std::size_t) {});
  // Half the compute is covered by external work; the rest stalls.
  device.AdvanceHostTime(0.5e-3);
  event.Wait();
  // 1 ms latency + 0.5 ms stall (external time itself is excluded).
  EXPECT_NEAR(device.ModeledSeconds(), 1.5e-3, 1e-9);
  EXPECT_NEAR(device.HostStallSeconds(), 0.5e-3, 1e-9);
}

TEST(Device, BlockingLaunchChargesLatencyPlusFullCompute) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.compute_throughput = 1e6;
  Device device(profile);
  // Blocking Launch is exactly enqueue + Wait: the whole compute lands on
  // the host timeline as a stall.
  device.Launch("sync", 1000, 1.0, [](std::size_t, std::size_t) {});
  EXPECT_NEAR(device.ModeledSeconds(), 2e-3, 1e-9);
  EXPECT_NEAR(device.HostStallSeconds(), 1e-3, 1e-9);
}

TEST(Device, ZeroLengthTransfersAreFreeAndUnmetered) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(8);
  double dummy = 0.0;
  device.ResetLedger();
  device.ResetModeledTime();
  device.CopyToDevice(&dummy, 0, &buffer);
  device.CopyToDevice(&dummy, 0, &buffer, /*offset=*/8);  // At-end no-op.
  device.CopyToHost(buffer, 0, 0, &dummy);
  EXPECT_FALSE(device.default_queue()
                   ->EnqueueCopyToHost(buffer, 4, 0, &dummy)
                   .valid());
  const TransferLedger& ledger = device.ledger();
  EXPECT_EQ(ledger.transfers_to_device, 0u);
  EXPECT_EQ(ledger.transfers_to_host, 0u);
  EXPECT_EQ(ledger.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(device.ModeledSeconds(), 0.0);
}

TEST(Device, RectCopyBooksOneTransferOfItsBytes) {
  // One sample row written across d dim-major strips (OpenCL's
  // clEnqueueWriteBufferRect): the ledger grows by exactly one transfer
  // of d floats, and the modeled clock charges exactly what a contiguous
  // copy of the same bytes costs.
  constexpr std::size_t kDims = 5;
  constexpr std::size_t kPitch = 64;
  constexpr std::size_t kRow = 7;
  Device rect(DeviceProfile::SimulatedGtx460());
  Device flat(DeviceProfile::SimulatedGtx460());
  auto strips = rect.CreateBuffer<float>(kDims * kPitch);
  auto contiguous = flat.CreateBuffer<float>(kDims * kPitch);
  // Identical histories on both devices: zero-fill, then reset.
  const std::vector<float> zeros(kDims * kPitch, 0.0f);
  for (auto [device, buffer] : {std::pair{&rect, &strips},
                                std::pair{&flat, &contiguous}}) {
    device->CopyToDevice(zeros.data(), zeros.size(), buffer);
    device->ResetLedger();
    device->ResetModeledTime();
  }
  const std::vector<float> row = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  rect.CopyRectToDevice(row.data(), 1, kDims, kPitch, &strips, kRow);
  flat.CopyToDevice(row.data(), kDims, &contiguous);
  EXPECT_EQ(rect.ledger().transfers_to_device, 1u);
  EXPECT_EQ(rect.ledger().bytes_to_device, kDims * sizeof(float));
  EXPECT_EQ(rect.ModeledSeconds(), flat.ModeledSeconds());
  EXPECT_EQ(rect.DeviceBusySeconds(), flat.DeviceBusySeconds());

  // Each element landed in its own strip; the same primitive reads the
  // row back as one transfer.
  std::vector<float> all(kDims * kPitch);
  rect.CopyToHost(strips, 0, all.size(), all.data());
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(all[j * kPitch + kRow], row[j]) << "strip " << j;
    EXPECT_EQ(all[j * kPitch + kRow + 1], 0.0f) << "strip " << j;
  }
  std::vector<float> back(kDims);
  rect.ResetLedger();
  rect.CopyRectToHost(strips, kRow, 1, kDims, kPitch, back.data());
  EXPECT_EQ(back, row);
  EXPECT_EQ(rect.ledger().transfers_to_host, 1u);
  EXPECT_EQ(rect.ledger().bytes_to_host, kDims * sizeof(float));
}

TEST(Device, RectCopyMovesEveryStripRun) {
  // A block of rows: strips x count elements at a pitch, packed back to
  // back on the host.
  constexpr std::size_t kStrips = 3;
  constexpr std::size_t kCount = 4;
  constexpr std::size_t kPitch = 10;
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(kStrips * kPitch);
  std::vector<double> block(kStrips * kCount);
  std::iota(block.begin(), block.end(), 1.0);
  device.CopyRectToDevice(block.data(), kCount, kStrips, kPitch, &buffer,
                          /*offset=*/2);
  std::vector<double> back(kStrips * kCount);
  device.CopyRectToHost(buffer, 2, kCount, kStrips, kPitch, back.data());
  EXPECT_EQ(back, block);
  EXPECT_EQ(device.ledger().transfers_to_device, 1u);
  EXPECT_EQ(device.ledger().transfers_to_host, 1u);
  EXPECT_EQ(device.ledger().bytes_to_device, block.size() * sizeof(double));
  EXPECT_EQ(device.ledger().bytes_to_host, block.size() * sizeof(double));
}

/// The device pointer a kernel body receives for an `Out` accessor over
/// `buffer` from element `offset` on.
const double* BodyPointer(Device& device, DeviceBuffer<double>& buffer,
                          std::size_t offset = 0) {
  const double* seen = nullptr;
  device.Launch("probe", 1, 1.0, std::tuple(Out(buffer, offset, 1)),
                [&seen](std::size_t, std::size_t, double* p) { seen = p; });
  return seen;
}

TEST(DeviceBuffer, MoveKeepsStoragePointerStable) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(64);
  const double* data = BodyPointer(device, buffer);
  DeviceBuffer<double> moved = std::move(buffer);
  EXPECT_EQ(BodyPointer(device, moved), data);
  EXPECT_EQ(moved.size(), 64u);
}

void ExpectSameAccess(const BufferAccess& a, const BufferAccess& b) {
  EXPECT_EQ(a.buffer_id, b.buffer_id);
  EXPECT_EQ(a.offset_bytes, b.offset_bytes);
  EXPECT_EQ(a.length_bytes, b.length_bytes);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.pitch_bytes, b.pitch_bytes);
  EXPECT_EQ(a.runs, b.runs);
}

TEST(Accessor, DeclaresWhatReadsAndWritesDeclare) {
  Device device(DeviceProfile::OpenClCpu());
  auto sample = device.CreateBuffer<float>(4 * 100);
  auto out = device.CreateBuffer<double>(64);
  ScratchBuffer scratch = device.AcquireScratch(300);
  // The strided sample read: the live prefix of 4 strips, pitch 100.
  ExpectSameAccess(In(sample, 0, 37, 100, 4).access(),
                   Reads(sample, 0, 37, 100, 4));
  ExpectSameAccess(In(sample).access(), Reads(sample));
  ExpectSameAccess(In(out, 5, 7).access(), Reads(out, 5, 7));
  ExpectSameAccess(Out(out).access(), Writes(out));
  ExpectSameAccess(Out(out, 8, 16, 20, 2).access(),
                   Writes(out, 8, 16, 20, 2));
  BufferAccess read_write = Reads(out, 3, 9);
  read_write.mode = AccessMode::kReadWrite;
  ExpectSameAccess(InOut(out, 3, 9).access(), read_write);
  ExpectSameAccess(Out(scratch, 10, 200).access(),
                   Writes(*scratch, 10, 200));
  ExpectSameAccess(InIf(true, sample, 0, 37).access(), Reads(sample, 0, 37));
  EXPECT_TRUE(InIf(true, sample).declared());
  EXPECT_FALSE(InIf(false, sample).declared());
}

TEST(Accessor, BodyPointerIsTheFirstDeclaredElement) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(64);
  const double* base = BodyPointer(device, buffer);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(BodyPointer(device, buffer, 5), base + 5);
}

TEST(Accessor, DisabledConditionalDeclaresNothingAndHandsNullptr) {
  Device device(DeviceProfile::OpenClCpu());
  device.EnableHazardChecking(HazardMode::kDeferred);
  auto scales = device.CreateBuffer<float>(16);
  auto out = device.CreateBuffer<double>(16);
  bool ran = false;
  bool got_nullptr = false;
  device.Launch("optional_scales", 1, 1.0,
                std::tuple(InIf(false, scales), Out(out)),
                [&](std::size_t, std::size_t, const float* s, double* o) {
                  got_nullptr = s == nullptr;
                  o[0] = 1.0;
                  ran = true;
                });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(got_nullptr);
  // Declared, the never-written scales would be a use-before-init read;
  // disabled, the launch declares only its write.
  EXPECT_TRUE(device.hazard_checker()->Validate().empty());
}

TEST(Device, TransferTimeUsesBandwidth) {
  DeviceProfile profile;
  profile.transfer_latency_s = 1e-4;
  profile.transfer_bandwidth = 1e6;  // 1 MB/s.
  Device device(profile);
  auto buffer = device.CreateBuffer<std::uint8_t>(1000000);
  std::vector<std::uint8_t> data(1000000, 0);
  device.CopyToDevice(data.data(), data.size(), &buffer);
  EXPECT_NEAR(device.ModeledSeconds(), 1.0 + 1e-4, 1e-6);
}

TEST(Device, GpuProfileFasterComputeSlowerLatency) {
  const DeviceProfile cpu = DeviceProfile::OpenClCpu();
  const DeviceProfile gpu = DeviceProfile::SimulatedGtx460();
  EXPECT_GT(gpu.compute_throughput, 3.5 * cpu.compute_throughput);
  EXPECT_LT(gpu.compute_throughput, 4.5 * cpu.compute_throughput);
  EXPECT_GT(gpu.transfer_latency_s, cpu.transfer_latency_s);
}

// ---------------------------------------------------------------------------
// ReduceSum, parameterized across sizes including group-size boundaries.
// ---------------------------------------------------------------------------

class ReduceSumSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReduceSumSweep, MatchesSequentialSum) {
  const std::size_t n = GetParam();
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(std::max<std::size_t>(n, 1));
  Rng rng(n + 1);
  std::vector<double> values(n);
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = rng.Uniform(-1.0, 1.0);
    expected += values[i];
  }
  if (n > 0) device.CopyToDevice(values.data(), n, &buffer);
  const double sum = ReduceSum(&device, buffer, 0, n);
  EXPECT_NEAR(sum, expected, 1e-9 * std::max(1.0, std::abs(expected)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceSumSweep,
                         ::testing::Values(0, 1, 2, 255, 256, 257, 1000,
                                           65536, 65537, 200000));

TEST(ReduceSum, DoesNotClobberInput) {
  Device device(DeviceProfile::OpenClCpu());
  const std::size_t n = 10000;
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> values(n, 1.0);
  device.CopyToDevice(values.data(), n, &buffer);
  (void)ReduceSum(&device, buffer, 0, n);
  std::vector<double> after(n);
  device.CopyToHost(buffer, 0, n, after.data());
  EXPECT_EQ(after, values);
}

TEST(ReduceSum, RespectsOffset) {
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(2000);
  std::vector<double> values(2000);
  for (std::size_t i = 0; i < 2000; ++i) values[i] = (i < 1000) ? 100.0 : 1.0;
  device.CopyToDevice(values.data(), 2000, &buffer);
  EXPECT_DOUBLE_EQ(ReduceSum(&device, buffer, 1000, 1000), 1000.0);
  EXPECT_DOUBLE_EQ(ReduceSum(&device, buffer, 0, 1000), 100000.0);
}

// ---------------------------------------------------------------------------
// ReduceSumSegments: the batched (multi-segment) reduction primitive.
// ---------------------------------------------------------------------------

struct SegmentedCase {
  std::size_t segment_size;
  std::size_t num_segments;
};

class ReduceSegmentsSweep : public ::testing::TestWithParam<SegmentedCase> {};

TEST_P(ReduceSegmentsSweep, MatchesPerSegmentReduceSumBitwise) {
  const SegmentedCase param = GetParam();
  const std::size_t n = param.segment_size * param.num_segments;
  Device device(DeviceProfile::OpenClCpu());
  auto buffer = device.CreateBuffer<double>(std::max<std::size_t>(n, 1));
  Rng rng(n + 3 * param.num_segments + 1);
  std::vector<double> values(n);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0);
  if (n > 0) device.CopyToDevice(values.data(), n, &buffer);

  auto out = device.CreateBuffer<double>(param.num_segments);
  ReduceSumSegments(&device, buffer, 0, param.segment_size,
                    param.num_segments, &out);
  std::vector<double> sums(param.num_segments);
  device.CopyToHost(out, 0, param.num_segments, sums.data());
  for (std::size_t seg = 0; seg < param.num_segments; ++seg) {
    // Bit-identical to a standalone ReduceSum over the same segment: both
    // fold through the same 256-wide group tree.
    const double expected = ReduceSum(&device, buffer,
                                      seg * param.segment_size,
                                      param.segment_size);
    EXPECT_EQ(sums[seg], expected) << "segment " << seg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReduceSegmentsSweep,
    ::testing::Values(SegmentedCase{0, 4}, SegmentedCase{1, 1},
                      SegmentedCase{1, 7}, SegmentedCase{255, 3},
                      SegmentedCase{256, 3}, SegmentedCase{257, 3},
                      SegmentedCase{1000, 10}, SegmentedCase{65537, 2}));

TEST(ReduceSumSegments, LaunchCountIndependentOfSegmentCount) {
  Device device(DeviceProfile::OpenClCpu());
  const std::size_t segment_size = 70000;  // Three reduction levels.
  for (std::size_t num_segments : {1ul, 4ul, 32ul}) {
    auto buffer = device.CreateBuffer<double>(segment_size * num_segments);
    std::vector<double> values(segment_size * num_segments, 1.0);
    device.CopyToDevice(values.data(), values.size(), &buffer);
    auto out = device.CreateBuffer<double>(num_segments);
    device.ResetLedger();
    ReduceSumSegments(&device, buffer, 0, segment_size, num_segments, &out);
    EXPECT_EQ(device.ledger().kernel_launches, 3u)
        << num_segments << " segments";
  }
}

TEST(ReduceSumSegments, DoesNotClobberInputAndRespectsOutOffset) {
  Device device(DeviceProfile::OpenClCpu());
  const std::size_t n = 4 * 1000;
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> values(n, 0.5);
  device.CopyToDevice(values.data(), n, &buffer);
  auto out = device.CreateBuffer<double>(6);
  const std::vector<double> sentinel = {-1.0, -1.0, -1.0, -1.0, -1.0, -1.0};
  device.CopyToDevice(sentinel.data(), 6, &out);
  ReduceSumSegments(&device, buffer, 0, 1000, 4, &out, /*out_offset=*/2);
  std::vector<double> after(n);
  device.CopyToHost(buffer, 0, n, after.data());
  EXPECT_EQ(after, values);
  std::vector<double> sums(6);
  device.CopyToHost(out, 0, 6, sums.data());
  EXPECT_DOUBLE_EQ(sums[0], -1.0);
  EXPECT_DOUBLE_EQ(sums[1], -1.0);
  for (std::size_t seg = 0; seg < 4; ++seg) {
    EXPECT_DOUBLE_EQ(sums[2 + seg], 500.0);
  }
}

TEST(ReduceSumSegments, EnqueuedLevelsHideBehindExternalWork) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.transfer_latency_s = 0.0;
  profile.transfer_bandwidth = 1e18;
  profile.compute_throughput = 1.0;  // Compute would dominate if waited on.
  Device device(profile);
  const std::size_t n = 8 * 65536;
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> values(n, 1.0);
  device.CopyToDevice(values.data(), n, &buffer);
  auto out = device.CreateBuffer<double>(8);
  device.ResetModeledTime();
  const Event last = EnqueueReduceSumSegments(device.default_queue(), buffer,
                                              0, 65536, 8, &out);
  // 2 levels (65536 -> 256 -> 1): only the two submission latencies have
  // hit the host timeline; the (enormous) compute runs on the device
  // clock and hides behind the external work below.
  EXPECT_NEAR(device.ModeledSeconds(), 2e-3, 1e-6);
  device.AdvanceHostTime(1e7);
  last.Wait();
  EXPECT_NEAR(device.ModeledSeconds(), 2e-3, 1e-6);
  EXPECT_DOUBLE_EQ(device.HostStallSeconds(), 0.0);
}

TEST(ReduceSumSegments, EventChainsAcrossDependentCommands) {
  DeviceProfile profile;
  profile.launch_latency_s = 1e-3;
  profile.transfer_latency_s = 0.0;
  profile.transfer_bandwidth = 1e18;
  profile.compute_throughput = 1e6;
  Device device(profile);
  const std::size_t n = 512;  // One reduction level of 2 groups.
  auto buffer = device.CreateBuffer<double>(n);
  std::vector<double> values(n, 2.0);
  device.CopyToDevice(values.data(), n, &buffer);
  auto out = device.CreateBuffer<double>(1);
  device.ResetModeledTime();
  CommandQueue* queue = device.default_queue();
  const Event reduced =
      EnqueueReduceSumSegments(queue, buffer, 0, n, 1, &out);
  // A read-back that waits on the reduction via its event: the in-order
  // queue already sequences it, and the wait-list folds the reduction's
  // modeled end into the transfer's start.
  double sum = 0.0;
  const Event read = queue->EnqueueCopyToHost(
      out, 0, 1, &sum, std::span<const Event>(&reduced, 1));
  EXPECT_GE(read.modeled_end_seconds(), reduced.modeled_end_seconds());
  read.Wait();
  EXPECT_DOUBLE_EQ(sum, 1024.0);
}

}  // namespace
}  // namespace fkde
