// Golden parity for every kernel IV.B body: the price bits and all eleven
// RuntimeStats counters of a fixed 64-option batch are pinned to the
// values the fiber-executed lambda bodies produced, so the barrier-phased
// bodies (run as coalesced work-item loops) are held bit for bit to them.
//
// The digest is 64-bit FNV-1a over the little-endian bytes of each
// price's IEEE-754 bit pattern, in option order. The kernel-b-gpu-double
// and kernel-b-gpu-single rows initialise their leaves through glibc
// std::pow (double and float), so their digests are pinned for glibc's
// libm; the FPGA rows use the in-repo approx pow, the host-leaves row
// host-side multiplication, and the Q17.46 row integer arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "finance/workload.h"
#include "kernels/kernel_b.h"
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

enum class Variant { kFpga, kFpgaHostLeaves, kGpuDouble, kGpuSingle, kQ17_46 };

struct Golden {
  Variant variant;
  std::size_t steps;
  std::uint64_t digest;
  Counters counters;
};

// Device-leaf FP rows share their counters (only the leaf arithmetic
// differs); host leaves add one transfer and the leaf reads, and the
// Q17.46 body also reads the host-side 1/u word.
constexpr Counters kFp2{4096, 512, 2, 7168, 512, 3584, 3072, 1, 128, 64, 640};
constexpr Counters kFp3{4096, 512, 2, 10752, 512, 6656, 5120, 1, 192, 64, 1344};
constexpr Counters kFp17{4096,   512,   2,    60928, 512,  157184,
                         87552,  1,     1088, 64,    38080};
constexpr Counters kFp128{4096,    512,     2,    458752, 512,    8454656,
                          4293120, 1,       8192, 64,     2105344};

const Golden kGolden[] = {
    {Variant::kFpga, 2, 0x6aa36e020ae7b6b3ull, kFp2},
    {Variant::kFpga, 3, 0xa483538f151362b1ull, kFp3},
    {Variant::kFpga, 17, 0xf2b56d48e1ecf322ull, kFp17},
    {Variant::kFpga, 128, 0x366fb395b2ff9286ull, kFp128},
    {Variant::kFpgaHostLeaves, 2, 0xebd4d78ea5168ab7ull,
     {5632, 512, 3, 8704, 512, 3584, 3072, 1, 128, 64, 640}},
    {Variant::kFpgaHostLeaves, 3, 0x588ec79db431a623ull,
     {6144, 512, 3, 12800, 512, 6656, 5120, 1, 192, 64, 1344}},
    {Variant::kFpgaHostLeaves, 17, 0xf9043299a8732b7eull,
     {13312, 512, 3, 70144, 512, 157184, 87552, 1, 1088, 64, 38080}},
    {Variant::kFpgaHostLeaves, 128, 0xd44b3b134f6ffa98ull,
     {70144, 512, 3, 524800, 512, 8454656, 4293120, 1, 8192, 64, 2105344}},
    {Variant::kGpuDouble, 2, 0x234f394bf76ee3abull, kFp2},
    {Variant::kGpuDouble, 3, 0x26f028124826f6cfull, kFp3},
    {Variant::kGpuDouble, 17, 0xd186996a252ef6f4ull, kFp17},
    {Variant::kGpuDouble, 128, 0xc224e7da035f40b1ull, kFp128},
    {Variant::kGpuSingle, 2, 0x60e8a27b53574439ull, kFp2},
    {Variant::kGpuSingle, 3, 0xf0d4e875ebd32e49ull, kFp3},
    {Variant::kGpuSingle, 17, 0x5258873a6957c157ull, kFp17},
    {Variant::kGpuSingle, 128, 0xf08291b0f6b391fcull, kFp128},
    {Variant::kQ17_46, 2, 0xc0fe24445c46a7fdull,
     {4096, 512, 2, 8192, 512, 3584, 3072, 1, 128, 64, 640}},
    {Variant::kQ17_46, 3, 0xd2d3a0057574bcddull,
     {4096, 512, 2, 12288, 512, 6656, 5120, 1, 192, 64, 1344}},
    {Variant::kQ17_46, 17, 0x9b1c90509c3285c1ull,
     {4096, 512, 2, 69632, 512, 157184, 87552, 1, 1088, 64, 38080}},
    {Variant::kQ17_46, 128, 0x28df225ebbe292e6ull,
     {4096, 512, 2, 524288, 512, 8454656, 4293120, 1, 8192, 64, 2105344}},
};

std::string label(Variant v) {
  switch (v) {
    case Variant::kFpga: return "kernel-b-fpga";
    case Variant::kFpgaHostLeaves: return "kernel-b-fpga-host-leaves";
    case Variant::kGpuDouble: return "kernel-b-gpu-double";
    case Variant::kGpuSingle: return "kernel-b-gpu-single";
    case Variant::kQ17_46: return "kernel-b-q17.46";
  }
  return "?";
}

/// The device's hazard report, or "" when it recorded nothing.
std::string report_of(const ocl::Device& device) {
  const ocl::analyzer::HazardReport& report = device.hazard_report();
  return report.empty() ? std::string() : report.to_string();
}

/// Runs one variant; with `hazards` set, the device's hazard analyzer is
/// armed and its report is written there.
KernelBResult run_variant(Variant v, std::size_t steps, std::size_t cu,
                          const std::vector<finance::OptionSpec>& batch,
                          std::string* hazards = nullptr) {
  auto arm = [hazards](ocl::Device& device) {
    if (hazards == nullptr) return;
    ocl::analyzer::AnalyzerConfig config;
    config.enabled = true;
    device.set_analyzer(config);
  };
  if (v == Variant::kQ17_46) {
    ocl::Device device("q17.46", ocl::DeviceKind::kFpga,
                       ocl::DeviceLimits{64u << 20, 16u << 10, 256, cu});
    arm(device);
    KernelBHostProgram host(device,
                            {.steps = steps, .mode = MathMode::kFixedPoint});
    KernelBResult result = host.run(batch);
    if (hazards != nullptr) *hazards = report_of(device);
    return result;
  }
  const auto platform = ocl::Platform::make_reference_platform();
  const bool gpu = v == Variant::kGpuDouble || v == Variant::kGpuSingle;
  ocl::Device& device = platform->device_by_kind(gpu ? ocl::DeviceKind::kGpu
                                                     : ocl::DeviceKind::kFpga);
  device.set_compute_units(cu);
  arm(device);
  KernelBHostProgram::Config config;
  config.steps = steps;
  config.mode = v == Variant::kGpuDouble   ? MathMode::kExactDouble
                : v == Variant::kGpuSingle ? MathMode::kSingle
                                           : MathMode::kFpgaApproxPow;
  config.host_leaves = v == Variant::kFpgaHostLeaves;
  KernelBHostProgram host(device, config);
  KernelBResult result = host.run(batch);
  if (hazards != nullptr) *hazards = report_of(device);
  return result;
}

TEST(KernelBGolden, PricesAndCountersMatchTheFiberExecutedBodies) {
  const auto batch = finance::make_random_batch(64, 7);
  for (const Golden& g : kGolden) {
    for (const std::size_t cu : {1u, 3u}) {
      SCOPED_TRACE(label(g.variant) + " steps=" + std::to_string(g.steps) +
                   " cu=" + std::to_string(cu));
      const KernelBResult result = run_variant(g.variant, g.steps, cu, batch);
      EXPECT_EQ(fnv1a_price_bits(result.prices), g.digest);
      EXPECT_EQ(counters_of(result.stats), g.counters);
      // One crossing per work-item per barrier, 2N+1 barriers per item.
      EXPECT_EQ(result.stats.barriers_executed,
                batch.size() * g.steps * (2 * g.steps + 1));
    }
  }
}

// Every body skips idle rows before its local_array lookup, so the
// analyzer must still see a clean, identical run: no hazard, and the
// golden digest and counters with shadow tracking on.
TEST(KernelBGolden, AnalyzerArmedRunsAreCleanAndMatchTheGoldens) {
  const auto batch = finance::make_random_batch(64, 7);
  for (const Golden& g : kGolden) {
    for (const std::size_t cu : {1u, 3u}) {
      SCOPED_TRACE(label(g.variant) + " steps=" + std::to_string(g.steps) +
                   " cu=" + std::to_string(cu));
      std::string hazards;
      const KernelBResult result =
          run_variant(g.variant, g.steps, cu, batch, &hazards);
      EXPECT_TRUE(hazards.empty()) << hazards;
      EXPECT_EQ(fnv1a_price_bits(result.prices), g.digest);
      EXPECT_EQ(counters_of(result.stats), g.counters);
    }
  }
}

}  // namespace
}  // namespace binopt::kernels
