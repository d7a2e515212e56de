// Golden parity for kernel IV.A: the price bits and all eleven
// RuntimeStats counters of a fixed 8-option batch, on the GPU and FPGA
// reference devices and in the reduced-reads variant, at 1 and 3 compute
// units, with the hazard analyzer off and armed. Kernel IV.A runs on the
// executor's direct-call path and shares its global accessors with the
// phased kernels, so any change to either is held bit for bit here.
//
// The digest is 64-bit FNV-1a over the little-endian bytes of each
// price's IEEE-754 bit pattern, in option order. Kernel IV.A's leaves come
// from the host by iterative multiplication, so the digests depend on no
// libm.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "finance/workload.h"
#include "kernels/kernel_a.h"
#include "ocl/platform.h"

namespace binopt::kernels {
namespace {

std::uint64_t fnv1a_price_bits(const std::vector<double>& prices) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double p : prices) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// The eleven counters in BINOPT_RUNTIME_STATS_COUNTERS order.
using Counters = std::array<std::uint64_t, 11>;

Counters counters_of(const ocl::RuntimeStats& s) {
  return {s.host_to_device_bytes, s.device_to_host_bytes, s.host_transfers,
          s.global_load_bytes,    s.global_store_bytes,   s.local_load_bytes,
          s.local_store_bytes,    s.kernels_enqueued,     s.work_items_executed,
          s.work_groups_executed, s.barriers_executed};
}

enum class Variant { kGpu, kFpga, kGpuReducedReads };

struct Golden {
  Variant variant;
  std::size_t steps;
  std::uint64_t digest;
  Counters counters;
};

// Both devices run the same kernel on the same NDRange, so they share
// every value; reduced reads change only the device-to-host bytes.
constexpr std::uint64_t kDigest1 = 0x12e2cdadcf600668ull;
constexpr std::uint64_t kDigest2 = 0x2846eaba8d287be6ull;
constexpr std::uint64_t kDigest17 = 0xd8950a9e07e9f756ull;
constexpr std::uint64_t kDigest128 = 0x624cc5801078f6fbull;
constexpr Counters kFull1{644, 192, 33, 608, 128, 0, 0, 8, 8, 8, 0};
constexpr Counters kFull2{780, 432, 34, 1836, 384, 0, 0, 9, 27, 9, 0};
constexpr Counters kFull17{3300, 32832, 49, 102816, 19584, 0,
                           0,    24,    3672, 24,  0};
constexpr Counters kFull128{49920, 9055800, 160,  9213696, 1056768, 0,
                            0,     135,     1114560, 5805, 0};

const Golden kGolden[] = {
    {Variant::kGpu, 1, kDigest1, kFull1},
    {Variant::kGpu, 2, kDigest2, kFull2},
    {Variant::kGpu, 17, kDigest17, kFull17},
    {Variant::kGpu, 128, kDigest128, kFull128},
    {Variant::kFpga, 1, kDigest1, kFull1},
    {Variant::kFpga, 2, kDigest2, kFull2},
    {Variant::kFpga, 17, kDigest17, kFull17},
    {Variant::kFpga, 128, kDigest128, kFull128},
    {Variant::kGpuReducedReads, 1, kDigest1,
     {644, 64, 33, 608, 128, 0, 0, 8, 8, 8, 0}},
    {Variant::kGpuReducedReads, 2, kDigest2,
     {780, 72, 34, 1836, 384, 0, 0, 9, 27, 9, 0}},
    {Variant::kGpuReducedReads, 17, kDigest17,
     {3300, 192, 49, 102816, 19584, 0, 0, 24, 3672, 24, 0}},
    {Variant::kGpuReducedReads, 128, kDigest128,
     {49920, 1080, 160, 9213696, 1056768, 0, 0, 135, 1114560, 5805, 0}},
};

std::string label(Variant v) {
  switch (v) {
    case Variant::kGpu: return "kernel-a-gpu";
    case Variant::kFpga: return "kernel-a-fpga";
    case Variant::kGpuReducedReads: return "kernel-a-gpu-reduced-reads";
  }
  return "?";
}

/// Runs one variant; with `hazards` set, the device's hazard analyzer is
/// armed and its report (or "" when empty) is written there.
KernelAResult run_variant(Variant v, std::size_t steps, std::size_t cu,
                          const std::vector<finance::OptionSpec>& batch,
                          std::string* hazards = nullptr) {
  const auto platform = ocl::Platform::make_reference_platform();
  ocl::Device& device = platform->device_by_kind(
      v == Variant::kFpga ? ocl::DeviceKind::kFpga : ocl::DeviceKind::kGpu);
  device.set_compute_units(cu);
  if (hazards != nullptr) {
    ocl::analyzer::AnalyzerConfig config;
    config.enabled = true;
    device.set_analyzer(config);
  }
  KernelAHostProgram::Config config;
  config.steps = steps;
  config.reduced_reads = v == Variant::kGpuReducedReads;
  KernelAHostProgram host(device, config);
  KernelAResult result = host.run(batch);
  if (hazards != nullptr) {
    const ocl::analyzer::HazardReport& report = device.hazard_report();
    *hazards = report.empty() ? std::string() : report.to_string();
  }
  return result;
}

void expect_golden(const Golden& g, const KernelAResult& result,
                   std::size_t options) {
  EXPECT_EQ(fnv1a_price_bits(result.prices), g.digest);
  EXPECT_EQ(counters_of(result.stats), g.counters);
  // One launch per pipeline batch, one work-item per interior node.
  EXPECT_EQ(result.stats.kernels_enqueued, options + g.steps - 1);
  EXPECT_EQ(result.stats.work_items_executed,
            result.stats.kernels_enqueued * g.steps * (g.steps + 1) / 2);
}

TEST(KernelAGolden, PricesAndCountersArePinned) {
  const auto batch = finance::make_random_batch(8, 7);
  for (const Golden& g : kGolden) {
    for (const std::size_t cu : {1u, 3u}) {
      SCOPED_TRACE(label(g.variant) + " steps=" + std::to_string(g.steps) +
                   " cu=" + std::to_string(cu));
      expect_golden(g, run_variant(g.variant, g.steps, cu, batch),
                    batch.size());
    }
  }
}

// With shadow tracking on, the same run must be clean and bit-identical.
TEST(KernelAGolden, AnalyzerArmedRunsAreCleanAndMatchTheGoldens) {
  const auto batch = finance::make_random_batch(8, 7);
  for (const Golden& g : kGolden) {
    for (const std::size_t cu : {1u, 3u}) {
      SCOPED_TRACE(label(g.variant) + " steps=" + std::to_string(g.steps) +
                   " cu=" + std::to_string(cu));
      std::string hazards;
      const KernelAResult result =
          run_variant(g.variant, g.steps, cu, batch, &hazards);
      EXPECT_TRUE(hazards.empty()) << hazards;
      expect_golden(g, result, batch.size());
    }
  }
}

}  // namespace
}  // namespace binopt::kernels
