// Stress and scale tests for the execution engine: paper-scale work-group
// widths (1024 work-items, the N = 1024 tree row), deep barrier loops,
// arena reuse across thousands of groups, and exception hygiene when a
// work-item dies mid-barrier-phase. Kernels that synchronise are written
// as barrier-phased kernels.
#include <gtest/gtest.h>

#include <vector>

#include "ocl/platform.h"
#include "ocl/workgroup_executor.h"

namespace binopt::ocl {
namespace {

// Private state for phased kernels that carry nothing across barriers.
struct NoState {};

TEST(ExecutorStress, PaperScaleWorkGroupOf1024WithBarriers) {
  WorkGroupExecutor executor(32 * 1024, 1024);
  RuntimeStats stats;
  // Rotating neighbour sum across 8 barrier phases at full width.
  // Each rotation is a store phase and a load phase; the item's running
  // value is its private state. Phase 16 publishes it.
  std::vector<double> result(1024, 0.0);
  struct Acc {
    double acc = 0.0;
  };
  const Kernel kernel = make_phased_kernel<Acc>(
      "wide_group", 2 * 8 + 1,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, Acc& st) {
        const std::size_t n = ctx.local_size();
        auto row = ctx.local_array<double>(n);
        if (phase == 0) st.acc = static_cast<double>(ctx.local_id());
        if (phase == 2 * 8) {
          result[ctx.local_id()] = st.acc;
        } else if (phase % 2 == 0) {
          row.set(ctx.local_id(), st.acc);
        } else {
          st.acc = row.get((ctx.local_id() + 1) % n);
        }
      });
  KernelArgs args;
  executor.execute(kernel, args, NDRange{1024, 1024}, stats);
  // After 8 rotations each item holds the id 8 positions ahead.
  for (std::size_t i = 0; i < 1024; ++i) {
    EXPECT_DOUBLE_EQ(result[i], static_cast<double>((i + 8) % 1024));
  }
  EXPECT_EQ(stats.barriers_executed, 1024u * 16u);
}

TEST(ExecutorStress, ThousandsOfGroupsReuseTheFiberPool) {
  WorkGroupExecutor executor(16 * 1024, 64);
  RuntimeStats stats;
  std::size_t count = 0;
  const Kernel kernel = make_phased_kernel<NoState>(
      "many_groups", 2,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        if (phase == 1 && ctx.local_id() == 0) ++count;
      });
  KernelArgs args;
  executor.execute(kernel, args, NDRange{4000 * 8, 8}, stats);
  EXPECT_EQ(count, 4000u);
  EXPECT_EQ(stats.work_groups_executed, 4000u);
}

TEST(ExecutorStress, DeepBarrierLoopSurvives) {
  WorkGroupExecutor executor(16 * 1024, 16);
  RuntimeStats stats;
  const Kernel kernel = make_phased_kernel<NoState>(
      "deep_loop", 2000 + 1,
      [](WorkItemCtx&, const KernelArgs&, std::size_t, NoState&) {});
  KernelArgs args;
  executor.execute(kernel, args, NDRange{16, 16}, stats);
  EXPECT_EQ(stats.barriers_executed, 16u * 2000u);
}

TEST(ExecutorStress, ExceptionMidPhaseLeavesTheSameExecutorReusable) {
  WorkGroupExecutor executor(16 * 1024, 8);
  RuntimeStats stats;
  const Kernel bad = make_phased_kernel<NoState>(
      "dies_after_barrier", 3,
      [](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        if (phase == 1 && ctx.local_id() == 3) throw PreconditionError("boom");
      });
  KernelArgs args;
  EXPECT_THROW(executor.execute(bad, args, NDRange{8, 8}, stats),
               PreconditionError);

  // The throw unwinds the item loop and leaves the executor's arenas
  // consistent, so the SAME executor (and therefore the Device that owns
  // it) keeps working.
  std::size_t ran = 0;
  const Kernel good = make_phased_kernel<NoState>(
      "fine", 2,
      [&](WorkItemCtx&, const KernelArgs&, std::size_t phase, NoState&) {
        if (phase == 1) ++ran;
      });
  EXPECT_NO_THROW(executor.execute(good, args, NDRange{8, 8}, stats));
  EXPECT_EQ(ran, 8u);
}

TEST(ExecutorStress, LocalArenaIsReusedAcrossGroupsWithoutBleed) {
  // Group g writes g-dependent data; each group must see only its own
  // writes within a phase (values are re-initialised before reads).
  WorkGroupExecutor executor(16 * 1024, 4);
  RuntimeStats stats;
  std::vector<double> sums(50, 0.0);
  const Kernel kernel = make_phased_kernel<NoState>(
      "arena_reuse", 2,
      [&](WorkItemCtx& ctx, const KernelArgs&, std::size_t phase, NoState&) {
        auto row = ctx.local_array<double>(4);
        if (phase == 0) {
          row.set(ctx.local_id(), static_cast<double>(ctx.group_id() + 1));
        } else if (ctx.local_id() == 0) {
          double sum = 0.0;
          for (std::size_t i = 0; i < 4; ++i) sum += row.get(i);
          sums[ctx.group_id()] = sum;
        }
      });
  KernelArgs args;
  executor.execute(kernel, args, NDRange{200, 4}, stats);
  for (std::size_t g = 0; g < 50; ++g) {
    EXPECT_DOUBLE_EQ(sums[g], 4.0 * static_cast<double>(g + 1)) << "group " << g;
  }
}

}  // namespace
}  // namespace binopt::ocl
