// Barrier-phased kernels (PhasedBody): the executor runs each phase as a
// plain loop over the group's work-items, compiled with the body. These
// tests pin the contract the phased form keeps: its order (pinned
// directly, and through the output bits and counters of a racy kernel),
// the analyzer's epochs, value-initialised private state per group, no
// item after a throwing one, and a device that stays reusable after a
// phase throws.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ocl/context.h"
#include "ocl/device.h"
#include "ocl/queue.h"
#include "ocl/workgroup_executor.h"

namespace binopt::ocl {
namespace {

constexpr std::size_t kMiB = 1024 * 1024;

Device make_device(std::size_t compute_units) {
  return Device("phased-test", DeviceKind::kFpga,
                DeviceLimits{16 * kMiB, 16 * 1024, 64, compute_units});
}

// A deliberately racy exchange: every round each work-item reads its
// right neighbour's slot and overwrites its own in the SAME barrier
// region, so the result depends on execution order.
constexpr std::size_t kRounds = 3;

struct RacyState {
  double acc = 0.0;
};

Kernel racy_phased() {
  return make_phased_kernel<RacyState>(
      "racy_exchange", kRounds + 2,
      [](WorkItemCtx& ctx, const KernelArgs& args, std::size_t phase,
         RacyState& st) {
        const std::size_t n = ctx.local_size();
        const std::size_t k = ctx.local_id();
        auto row = ctx.local_array<double>(n);
        if (phase == 0) {
          row.set(k, static_cast<double>(ctx.global_id() + 1));
        } else if (phase <= kRounds) {
          st.acc = 0.5 * st.acc + row.get((k + 1) % n);
          row.set(k, st.acc);
        } else {
          auto out = ctx.global<double>(args.buffer(0));
          out.set(ctx.global_id(), row.get(k) + st.acc);
        }
      });
}

struct Launch {
  std::vector<double> out;
  RuntimeStats stats;
};

Launch launch(Device& device, const Kernel& kernel, NDRange range) {
  device.reset_stats();
  Context context(device);
  CommandQueue queue(context);
  Buffer& out = context.create_buffer_of<double>(range.global_size,
                                                 MemFlags::kWriteOnly, "out");
  KernelArgs args;
  args.set(0, &out);
  queue.enqueue_ndrange(kernel, args, range);
  Launch result;
  result.out.assign(range.global_size, 0.0);
  queue.read<double>(out, result.out);
  result.stats = device.stats();
  return result;
}

/// 64-bit FNV-1a over the little-endian bytes of each value's IEEE-754
/// bit pattern, in order.
std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// The eleven counters in BINOPT_RUNTIME_STATS_COUNTERS order.
std::array<std::uint64_t, 11> counters_of(const RuntimeStats& s) {
  return {s.host_to_device_bytes, s.device_to_host_bytes, s.host_transfers,
          s.global_load_bytes,    s.global_store_bytes,   s.local_load_bytes,
          s.local_store_bytes,    s.kernels_enqueued,     s.work_items_executed,
          s.work_groups_executed, s.barriers_executed};
}

// The racy exchange's output digest and counters are the ones the same
// kernel produced as a lambda body that called barrier() on per-work-item
// fibers, resumed in local-id order one barrier region at a time. They
// pin the phased loop to that schedule, racy reads included.
TEST(PhasedExecutor, RacyKernelMatchesTheFiberScheduleBitForBit) {
  constexpr std::uint64_t kDigest = 0xb9eb81a6282f6b6cull;
  constexpr std::array<std::uint64_t, 11> kCounters{
      0, 768, 1, 0, 768, 3072, 3072, 1, 96, 6, 384};
  const NDRange range{6 * 16, 16};
  for (const std::size_t units : {1u, 3u}) {
    Device phased = make_device(units);
    const Launch b = launch(phased, racy_phased(), range);
    EXPECT_EQ(fnv1a_bits(b.out), kDigest) << "units=" << units;
    EXPECT_EQ(counters_of(b.stats), kCounters) << "units=" << units;
    EXPECT_EQ(b.stats.barriers_executed, range.global_size * (kRounds + 1));
  }
}

TEST(PhasedExecutor, AnalyzerFlagsARacyPhaseWithWorkItemAttribution) {
  Device device = make_device(1);
  analyzer::AnalyzerConfig config;
  config.enabled = true;
  device.set_analyzer(config);
  Context context(device);
  CommandQueue queue(context);

  // Phase 1: every work-item writes local[0] with no barrier in between.
  struct State {
    int unused = 0;
  };
  const Kernel kernel = make_phased_kernel<State>(
      "phased_write_race", 3,
      [](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, State&) {
        auto row = ctx.local_array<double>(ctx.local_size());
        if (phase == 0) row.set(ctx.local_id(), 1.0);
        if (phase == 1) row.set(0, static_cast<double>(ctx.local_id()));
        if (phase == 2) (void)row.get(ctx.local_id());
      });
  KernelArgs args;
  queue.enqueue_ndrange(kernel, args, NDRange{8, 8});

  const analyzer::HazardReport& report = device.hazard_report();
  ASSERT_GE(report.count(analyzer::HazardKind::kLocalRaceWriteWrite), 1u)
      << report.to_string();
  EXPECT_EQ(report.count(analyzer::HazardKind::kLocalRaceReadWrite), 0u)
      << report.to_string();
  const std::vector<analyzer::Hazard> hazards = report.hazards();
  const analyzer::Hazard* race = nullptr;
  for (const analyzer::Hazard& h : hazards) {
    if (h.kind == analyzer::HazardKind::kLocalRaceWriteWrite) race = &h;
  }
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->kernel, "phased_write_race");
  EXPECT_EQ(race->resource, "local[0]");
  EXPECT_EQ(race->byte_offset, 0u);
  // Items run in local-id order within the phase: item 1's store is the
  // first to collide with item 0's.
  EXPECT_EQ(race->first.work_item, 0u);
  EXPECT_EQ(race->second.work_item, 1u);
  EXPECT_TRUE(race->first.is_write);
  EXPECT_TRUE(race->second.is_write);
  EXPECT_EQ(race->first.epoch, 1u);
  EXPECT_EQ(race->second.epoch, 1u);
}

// The item loop is compiled with the body, so its order is pinned here
// directly: groups in order, and within a group `for phase { for item }`.
TEST(PhasedExecutor, BodySeesPhasesOuterAndItemsInnerInLocalIdOrder) {
  struct Visit {
    std::size_t group, phase, item;
    bool operator==(const Visit&) const = default;
  };
  struct State {
    int unused = 0;
  };
  constexpr std::size_t kPhases = 4;
  constexpr std::size_t kItems = 5;
  constexpr std::size_t kGroups = 3;
  std::vector<Visit> seen;
  const Kernel kernel = make_phased_kernel<State>(
      "visit_order", kPhases,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, State&) {
        EXPECT_EQ(ctx.global_id(), ctx.group_id() * kItems + ctx.local_id());
        seen.push_back({ctx.group_id(), phase, ctx.local_id()});
      });
  WorkGroupExecutor executor(1024, 8);
  RuntimeStats stats;
  KernelArgs args;
  executor.execute(kernel, args, NDRange{kGroups * kItems, kItems}, stats);

  std::vector<Visit> want;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t phase = 0; phase < kPhases; ++phase) {
      for (std::size_t item = 0; item < kItems; ++item) {
        want.push_back({g, phase, item});
      }
    }
  }
  EXPECT_EQ(seen, want);
}

TEST(PhasedExecutor, ThrowingItemStopsTheRestOfItsPhase) {
  struct State {
    int unused = 0;
  };
  constexpr std::size_t kItems = 6;
  constexpr std::size_t kFailPhase = 2;
  constexpr std::size_t kFailItem = 3;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  const Kernel kernel = make_phased_kernel<State>(
      "throws_mid_phase", 4,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, State&) {
        seen.emplace_back(phase, ctx.local_id());
        if (phase == kFailPhase && ctx.local_id() == kFailItem) {
          throw PreconditionError("item failed");
        }
      });
  WorkGroupExecutor executor(1024, 8);
  RuntimeStats stats;
  KernelArgs args;
  EXPECT_THROW(executor.execute(kernel, args, NDRange{kItems, kItems}, stats),
               PreconditionError);

  // Every item of phases 0 and 1, then items 0..3 of phase 2: nothing
  // after the throwing item, in its phase or later ones.
  std::vector<std::pair<std::size_t, std::size_t>> want;
  for (std::size_t phase = 0; phase < kFailPhase; ++phase) {
    for (std::size_t item = 0; item < kItems; ++item) {
      want.emplace_back(phase, item);
    }
  }
  for (std::size_t item = 0; item <= kFailItem; ++item) {
    want.emplace_back(kFailPhase, item);
  }
  EXPECT_EQ(seen, want);
  EXPECT_EQ(stats.work_groups_executed, 0u);
}

TEST(PhasedExecutor, LocalOutOfBoundsIsADescriptiveError) {
  struct State {
    int unused = 0;
  };
  for (const bool store : {false, true}) {
    const Kernel kernel = make_phased_kernel<State>(
        "local_oob", 2,
        [store](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase,
                State&) {
          auto row = ctx.local_array<double>(ctx.local_size());
          if (phase == 0) row.set(ctx.local_id(), 1.0);
          if (phase == 1 && ctx.local_id() == 2) {
            if (store) {
              row.set(ctx.local_size(), 0.0);
            } else {
              (void)row.get(ctx.local_size());
            }
          }
        });
    WorkGroupExecutor executor(1024, 8);
    RuntimeStats stats;
    KernelArgs args;
    try {
      executor.execute(kernel, args, NDRange{4, 4}, stats);
      FAIL() << "an out-of-bounds local access must throw";
    } catch (const PreconditionError& e) {
      const std::string want = std::string("local ") +
                               (store ? "store" : "load") +
                               " out of bounds: 4 >= 4";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
  }
}

// Each local_array is bound once per (group, phase) and reused by later
// items, which must still have their sizes checked: a divergent size is
// the same descriptive error in the allocating phase and in a later one,
// with the analyzer off and armed.
TEST(PhasedExecutor, DivergentLocalArraySizeIsADescriptiveError) {
  struct State {
    int unused = 0;
  };
  for (const std::size_t divergent_phase : {0u, 2u}) {
    for (const bool armed : {false, true}) {
      SCOPED_TRACE("phase " + std::to_string(divergent_phase) +
                   (armed ? ", analyzer armed" : ", analyzer off"));
      const Kernel kernel = make_phased_kernel<State>(
          "divergent_local", 3,
          [divergent_phase](WorkItemCtx& ctx, const KernelArgs&,
                            std::size_t phase, State&) {
            const bool odd_one_out =
                phase == divergent_phase && ctx.local_id() == 2;
            auto row = ctx.local_array<double>(odd_one_out ? 3 : 4);
            row.set(ctx.local_id() % row.size(), 1.0);
          });
      Device device = make_device(1);
      if (armed) {
        analyzer::AnalyzerConfig config;
        config.enabled = true;
        device.set_analyzer(config);
      }
      KernelArgs args;
      try {
        device.execute(kernel, args, NDRange{4, 4});
        FAIL() << "a divergent local_array size must throw";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "divergent local allocation: work-item 2 requested 24 "
                      "bytes, group allocated 32"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// A phase that throws partway through, after local and global accesses:
// whatever the item loop tallies per phase still reaches the device's
// counters. The values were recorded with every access counted as it
// happened, so this pins the tally's flush on unwind, with the analyzer
// off and armed.
TEST(PhasedExecutor, CountersAfterAThrowMatchPerAccessCounting) {
  constexpr std::size_t kItems = 8;
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kFailGroup = 2;
  constexpr std::size_t kFailItem = 5;
  struct State {
    double carried = 0.0;
  };
  const Kernel kernel = make_phased_kernel<State>(
      "throws_after_traffic", 3,
      [](WorkItemCtx& ctx, const KernelArgs& args, std::size_t phase,
         State& st) {
        const std::size_t n = ctx.local_size();
        const std::size_t k = ctx.local_id();
        auto row = ctx.local_array<double>(n);
        auto sums = ctx.local_array<double>(n);
        auto in = ctx.global<double>(args.buffer(0));
        if (phase == 0) {
          st.carried = in.get(ctx.global_id());
          row.set(k, st.carried);
        } else if (phase == 1) {
          st.carried += row.get((k + 1) % n) + in.get(ctx.global_id());
          sums.set(k, st.carried);
          if (ctx.group_id() == kFailGroup && k == kFailItem) {
            throw PreconditionError("item failed after its accesses");
          }
        } else {
          auto out = ctx.global<double>(args.buffer(1));
          out.set(ctx.global_id(), sums.get(k));
        }
      });
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "analyzer armed" : "analyzer off");
    Device device = make_device(1);
    if (armed) {
      analyzer::AnalyzerConfig config;
      config.enabled = true;
      device.set_analyzer(config);
    }
    Context context(device);
    CommandQueue queue(context);
    const NDRange range{kGroups * kItems, kItems};
    Buffer& in = context.create_buffer_of<double>(range.global_size,
                                                  MemFlags::kReadOnly, "in");
    Buffer& out = context.create_buffer_of<double>(range.global_size,
                                                   MemFlags::kWriteOnly, "out");
    queue.write<double>(in, std::vector<double>(range.global_size, 1.5));
    KernelArgs args;
    args.set(0, &in);
    args.set(1, &out);
    EXPECT_THROW(device.execute(kernel, args, range), PreconditionError);

    // Groups 0 and 1 complete; group 2 stops after items 0..5 of phase 1.
    RuntimeStats want;
    want.host_to_device_bytes = 256;
    want.device_to_host_bytes = 0;
    want.host_transfers = 1;
    want.global_load_bytes = 368;
    want.global_store_bytes = 128;
    want.local_load_bytes = 304;
    want.local_store_bytes = 368;
    want.kernels_enqueued = 1;
    want.work_items_executed = 16;
    want.work_groups_executed = 2;
    want.barriers_executed = 40;
    EXPECT_EQ(device.stats(), want) << device.stats().to_string();
    if (armed) {
      EXPECT_TRUE(device.hazard_report().empty())
          << device.hazard_report().to_string();
    }
  }
}

TEST(PhasedExecutor, PrivateStateIsValueInitialisedForEveryGroup) {
  struct State {
    int phases_seen = 0;
    double carried = 0.0;
    bool touched = false;
  };
  std::vector<int> fresh_at_phase0;
  std::vector<double> carried_at_end;
  const Kernel kernel = make_phased_kernel<State>(
      "state_lifecycle", 4,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, State& st) {
        if (phase == 0) {
          fresh_at_phase0.push_back(st.phases_seen == 0 && st.carried == 0.0 &&
                                    !st.touched);
        }
        ++st.phases_seen;
        st.carried += static_cast<double>(ctx.global_id() + phase);
        st.touched = true;
        if (phase == 3) {
          EXPECT_EQ(st.phases_seen, 4);
          carried_at_end.push_back(st.carried);
        }
      });
  // One executor, several groups (and group sizes) in a row: the arena is
  // reused, so stale state from the previous group would show here.
  WorkGroupExecutor executor(1024, 16);
  RuntimeStats stats;
  KernelArgs args;
  executor.execute(kernel, args, NDRange{5 * 8, 8}, stats);
  executor.execute(kernel, args, NDRange{3 * 16, 16}, stats);
  executor.execute(kernel, args, NDRange{4 * 2, 2}, stats);
  ASSERT_EQ(fresh_at_phase0.size(), 40u + 48u + 8u);
  for (const int fresh : fresh_at_phase0) EXPECT_TRUE(fresh);
  ASSERT_EQ(carried_at_end.size(), fresh_at_phase0.size());
  // Items run in local-id order, groups in order, per launch.
  std::size_t i = 0;
  for (const std::size_t global : {40u, 48u, 8u}) {
    for (std::size_t id = 0; id < global; ++id, ++i) {
      EXPECT_EQ(carried_at_end[i], static_cast<double>(4 * id + 6));
    }
  }
  EXPECT_EQ(stats.barriers_executed, 3u * (40 + 48 + 8));
  EXPECT_EQ(stats.work_groups_executed, 5u + 3 + 4);
}

TEST(PhasedExecutor, ThrowingPhaseRethrowsLowestGroupAndDeviceStaysReusable) {
  const NDRange range{64 * 8, 8};
  Device device = make_device(4);
  const Launch before = launch(device, racy_phased(), range);

  std::mutex mutex;
  std::set<std::size_t> failed;
  struct State {
    int unused = 0;
  };
  const Kernel bad = make_phased_kernel<State>(
      "dies_mid_phase", 3,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, State&) {
        if (phase == 1 && ctx.local_id() == 3 && ctx.group_id() % 7 == 5) {
          {
            const std::lock_guard<std::mutex> lock(mutex);
            failed.insert(ctx.group_id());
          }
          throw PreconditionError("phase failed in group " +
                                  std::to_string(ctx.group_id()) + ";");
        }
      });
  KernelArgs args;
  try {
    device.execute(bad, args, range);
    FAIL() << "a throwing phase must fail the launch";
  } catch (const PreconditionError& e) {
    ASSERT_FALSE(failed.empty());
    const std::string want =
        "phase failed in group " + std::to_string(*failed.begin()) + ";";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }

  // Same device, same executors: the next launch is bit-identical to the
  // one before the failure.
  const Launch after = launch(device, racy_phased(), range);
  EXPECT_EQ(after.out, before.out);
  EXPECT_EQ(after.stats, before.stats);
}

}  // namespace
}  // namespace binopt::ocl
